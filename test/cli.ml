(* The crn_sim binary, for tests that drive the command line end to end.
   The cwd is _build/default/test under `dune runtest` (the declared dep
   guarantees the binary), the workspace root under `dune exec`. *)

let exe () =
  List.map
    (fun rel -> Filename.concat (Sys.getcwd ()) rel)
    [ "../bin/crn_sim.exe"; "_build/default/bin/crn_sim.exe" ]
  |> List.find_opt Sys.file_exists
  |> function
  | Some exe -> exe
  | None -> Alcotest.fail "crn_sim.exe not found next to the test run"

(* [run args] is the exit code and standard output of [crn_sim args]
   (stderr discarded). *)
let run args =
  let out = Filename.temp_file "crn_cli" ".out" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s >%s 2>/dev/null" (Filename.quote (exe ())) args
         (Filename.quote out))
  in
  let ic = open_in_bin out in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out;
  (code, text)

(* cmdliner's exit code for a user error. *)
let cli_error = 124
