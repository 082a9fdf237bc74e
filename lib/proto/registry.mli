(** The central protocol registry: every protocol in the repository —
    COGCAST, COGCOMP with and without recovery, all five rendezvous
    baselines — packed behind the {!Protocol} interface under a stable
    name, in one list the CLI and the bench harness dispatch on. Each entry
    declares what it supports ({!Protocol.type-capabilities}) where it is
    packed; [crn_sim protocols] prints the resulting matrix.

    Names are matched case-insensitively with ['-'] and ['_']
    interchangeable, so [crn_sim run --protocol cogcomp-robust] and
    [--protocol cogcomp_robust] find the same entry.

    A name of the form [jam_resist:<protocol>] resolves to
    [Jam_resist.wrap] applied to the named entry — the Theorem 18
    jamming-resistant variant of every protocol, derivable on demand and
    therefore not listed in {!all}. *)

val all : Protocol.t list
(** Every registered protocol, in presentation order: the paper's own
    protocols first, then the baselines they are measured against. *)

val names : unit -> string list
(** Canonical names of {!all}, in the same order. *)

val machine_names : unit -> string list
(** Names of the entries that enter through {!Protocol.of_machine} —
    COGCAST and every baseline and workload: the single-run state machines
    the generic driver can place on any {!Crn_radio.Runner} backend, the
    struct-of-arrays one included. The [of_run] entries (cogcomp,
    cogcomp_robust) are excluded: they drive one machine per phase. The
    SoA differential suite and bench E26 sweep this list. *)

val find : string -> Protocol.t option
(** Lookup by (normalized) name; [jam_resist:<name>] yields the wrapped
    variant of [<name>]. *)

val wrapped : Protocol.t -> Protocol.t option
(** The entry a [jam_resist:<name>] protocol wraps; [None] for any other. *)

val find_exn : string -> Protocol.t
(** Like {!find} but raises [Invalid_argument] listing the valid names. *)
