(* Tests for the statistics library: summaries, percentiles, histograms,
   least-squares fitting, tables and series. *)

module Summary = Crn_stats.Summary
module Histogram = Crn_stats.Histogram
module Fit = Crn_stats.Fit
module Table = Crn_stats.Table
module Series = Crn_stats.Series

let checkf = Alcotest.(check (float 1e-9))
let checkf_loose = Alcotest.(check (float 1e-6))

(* --- Summary ----------------------------------------------------------- *)

let test_mean () = checkf "mean" 2.5 (Summary.mean [| 1.0; 2.0; 3.0; 4.0 |])

let test_mean_singleton () = checkf "singleton" 42.0 (Summary.mean [| 42.0 |])

let test_variance () =
  (* Sample variance of 2,4,4,4,5,5,7,9 is 32/7. *)
  checkf_loose "variance" (32.0 /. 7.0)
    (Summary.variance [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |])

let test_stddev_singleton () = checkf "sd of singleton" 0.0 (Summary.stddev [| 3.0 |])

let test_percentile_interpolation () =
  let xs = [| 10.0; 20.0; 30.0; 40.0 |] in
  checkf "p0" 10.0 (Summary.percentile xs 0.0);
  checkf "p100" 40.0 (Summary.percentile xs 100.0);
  checkf "p50 interpolates" 25.0 (Summary.percentile xs 50.0);
  checkf "p25" 17.5 (Summary.percentile xs 25.0)

let test_percentile_unsorted_input () =
  let xs = [| 40.0; 10.0; 30.0; 20.0 |] in
  checkf "sorts internally" 25.0 (Summary.percentile xs 50.0);
  (* And does not mutate the input. *)
  Alcotest.(check (array (float 0.0))) "input unchanged" [| 40.0; 10.0; 30.0; 20.0 |] xs

let test_median_odd () = checkf "odd median" 3.0 (Summary.median [| 5.0; 1.0; 3.0 |])

let test_percentile_edges () =
  (* Empty input is rejected like every other Summary entry point, and p
     outside [0, 100] is a caller error, not a clamp. *)
  Alcotest.check_raises "empty percentile"
    (Invalid_argument "Summary.percentile: empty sample") (fun () ->
      ignore (Summary.percentile [||] 50.0));
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Summary.percentile: p out of range") (fun () ->
      ignore (Summary.percentile [| 1.0 |] 100.5));
  (* A single element answers every percentile. *)
  List.iter
    (fun p -> checkf "singleton" 7.0 (Summary.percentile [| 7.0 |] p))
    [ 0.0; 1.0; 50.0; 99.0; 100.0 ];
  (* Duplicate-heavy sample: the extremes hit the first/last sorted element
     with no off-by-one, runs of equal neighbours interpolate exactly, and
     a percentile landing in the last gap blends the run with the outlier:
     rank = 0.99 * 5 = 4.95, so p99 = 0.05*5 + 0.95*9 = 8.8. *)
  let xs = [| 5.0; 5.0; 5.0; 5.0; 5.0; 9.0 |] in
  checkf "p0 duplicate-heavy" 5.0 (Summary.percentile xs 0.0);
  checkf "p50 duplicate-heavy" 5.0 (Summary.percentile xs 50.0);
  checkf "p99 duplicate-heavy" 8.8 (Summary.percentile xs 99.0);
  checkf "p100 duplicate-heavy" 9.0 (Summary.percentile xs 100.0);
  (* All-equal sample is constant at every percentile. *)
  let eq = Array.make 17 3.0 in
  List.iter
    (fun p -> checkf "all-equal" 3.0 (Summary.percentile eq p))
    [ 0.0; 10.0; 50.0; 90.0; 100.0 ]

let test_summary_singleton_record () =
  let s = Summary.of_floats [| 4.25 |] in
  Alcotest.(check int) "count" 1 s.Summary.count;
  List.iter
    (fun (name, v) -> checkf name 4.25 v)
    [
      ("mean", s.Summary.mean);
      ("min", s.Summary.min);
      ("max", s.Summary.max);
      ("median", s.Summary.median);
      ("p10", s.Summary.p10);
      ("p90", s.Summary.p90);
      ("p99", s.Summary.p99);
    ];
  checkf "stddev" 0.0 s.Summary.stddev

let test_summary_record () =
  let s = Summary.of_ints [| 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 |] in
  Alcotest.(check int) "count" 10 s.Summary.count;
  checkf "mean" 5.5 s.Summary.mean;
  checkf "min" 1.0 s.Summary.min;
  checkf "max" 10.0 s.Summary.max;
  checkf "median" 5.5 s.Summary.median

let test_empty_rejected () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Summary.mean: empty sample")
    (fun () -> ignore (Summary.mean [||]))

(* --- Histogram --------------------------------------------------------- *)

let test_histogram_basic () =
  let h = Histogram.create ~lo:0.0 ~hi:10.0 ~bins:5 in
  List.iter (Histogram.add h) [ 0.5; 1.5; 2.5; 9.5; 9.9 ];
  Alcotest.(check int) "count" 5 (Histogram.count h);
  Alcotest.(check int) "bin 0" 2 (Histogram.bin_count h 0);
  Alcotest.(check int) "bin 1" 1 (Histogram.bin_count h 1);
  Alcotest.(check int) "bin 4" 2 (Histogram.bin_count h 4)

let test_histogram_clamps () =
  let h = Histogram.create ~lo:0.0 ~hi:1.0 ~bins:2 in
  Histogram.add h (-5.0);
  Histogram.add h 99.0;
  Alcotest.(check int) "low clamped" 1 (Histogram.bin_count h 0);
  Alcotest.(check int) "high clamped" 1 (Histogram.bin_count h 1)

let test_histogram_of_ints () =
  let h = Histogram.of_ints ~bins:4 [| 1; 2; 3; 4; 5; 6; 7; 8 |] in
  Alcotest.(check int) "total preserved" 8 (Histogram.count h);
  Alcotest.(check int) "bins" 4 (Histogram.bins h)

let test_histogram_bounds () =
  let h = Histogram.create ~lo:0.0 ~hi:10.0 ~bins:5 in
  let lo, hi = Histogram.bin_bounds h 2 in
  checkf "bin 2 lo" 4.0 lo;
  checkf "bin 2 hi" 6.0 hi

let test_histogram_edges () =
  (* Degenerate constructions are rejected outright. *)
  Alcotest.check_raises "empty of_ints"
    (Invalid_argument "Histogram.of_ints: empty sample") (fun () ->
      ignore (Histogram.of_ints [||]));
  Alcotest.check_raises "lo >= hi" (Invalid_argument "Histogram.create: lo >= hi")
    (fun () -> ignore (Histogram.create ~lo:1.0 ~hi:1.0 ~bins:4));
  Alcotest.check_raises "bins < 1" (Invalid_argument "Histogram.create: bins < 1")
    (fun () -> ignore (Histogram.create ~lo:0.0 ~hi:1.0 ~bins:0));
  (* One bin swallows everything, including out-of-range values. *)
  let h = Histogram.create ~lo:0.0 ~hi:1.0 ~bins:1 in
  List.iter (Histogram.add h) [ -3.0; 0.0; 0.5; 0.999; 42.0 ];
  Alcotest.(check int) "single bin holds all" 5 (Histogram.bin_count h 0);
  (* The upper edge is exclusive, but x = hi clamps into the last bin
     rather than falling off the end — no off-by-one at the boundary. *)
  let h = Histogram.create ~lo:0.0 ~hi:10.0 ~bins:5 in
  Histogram.add h 10.0;
  Alcotest.(check int) "x = hi lands in last bin" 1 (Histogram.bin_count h 4)

let test_histogram_all_equal () =
  (* of_ints on a constant sample widens hi to lo + 1 so bin 0 exists and
     takes the whole sample. *)
  let h = Histogram.of_ints ~bins:10 [| 5; 5; 5; 5 |] in
  Alcotest.(check int) "total" 4 (Histogram.count h);
  Alcotest.(check int) "all in bin 0" 4 (Histogram.bin_count h 0);
  let lo, hi = Histogram.bin_bounds h 0 in
  checkf "bin 0 starts at the value" 5.0 lo;
  checkf "widened span" 5.1 hi

(* --- Fit --------------------------------------------------------------- *)

let test_linear_exact () =
  let pts = Array.init 10 (fun i -> (float_of_int i, (3.0 *. float_of_int i) +. 2.0)) in
  let line = Fit.linear pts in
  checkf_loose "slope" 3.0 line.Fit.slope;
  checkf_loose "intercept" 2.0 line.Fit.intercept;
  checkf_loose "r2" 1.0 line.Fit.r2

let test_linear_flat () =
  let pts = [| (1.0, 5.0); (2.0, 5.0); (3.0, 5.0) |] in
  let line = Fit.linear pts in
  checkf_loose "slope 0" 0.0 line.Fit.slope;
  checkf_loose "flat data has r2 = 1 by convention" 1.0 line.Fit.r2

let test_log_log_exponent () =
  (* y = 7 x^2.5 has log-log slope 2.5. *)
  let pts = Array.init 20 (fun i ->
      let x = float_of_int (i + 1) in
      (x, 7.0 *. (x ** 2.5)))
  in
  let line = Fit.log_log pts in
  checkf_loose "exponent" 2.5 line.Fit.slope

let test_log_log_rejects_nonpositive () =
  Alcotest.check_raises "zero rejected"
    (Invalid_argument "Fit.log_log: non-positive coordinate") (fun () ->
      ignore (Fit.log_log [| (0.0, 1.0); (1.0, 2.0) |]))

let test_semilog () =
  (* y = 4 ln x + 1. *)
  let pts = Array.init 20 (fun i ->
      let x = float_of_int (i + 1) in
      (x, (4.0 *. log x) +. 1.0))
  in
  let line = Fit.semilog_x pts in
  checkf_loose "slope" 4.0 line.Fit.slope;
  checkf_loose "intercept" 1.0 line.Fit.intercept

let test_pearson_sign () =
  let up = Array.init 10 (fun i -> (float_of_int i, float_of_int (2 * i))) in
  let down = Array.init 10 (fun i -> (float_of_int i, float_of_int (-3 * i))) in
  checkf_loose "perfect positive" 1.0 (Fit.pearson up);
  checkf_loose "perfect negative" (-1.0) (Fit.pearson down)

let test_fit_degenerate () =
  Alcotest.check_raises "needs two points"
    (Invalid_argument "Fit.linear: need at least two points") (fun () ->
      ignore (Fit.linear [| (1.0, 1.0) |]));
  Alcotest.check_raises "same x rejected"
    (Invalid_argument "Fit.linear: degenerate x values") (fun () ->
      ignore (Fit.linear [| (1.0, 1.0); (1.0, 2.0) |]))

(* --- Table ------------------------------------------------------------- *)

let test_table_render () =
  let t = Table.create [ "n"; "slots" ] in
  Table.add_row t [ "8"; "120" ];
  Table.add_row t [ "16"; "300" ];
  let s = Table.render t in
  Alcotest.(check bool) "mentions header" true
    (String.length s > 0
    && String.trim (List.hd (String.split_on_char '\n' s)) <> "");
  Alcotest.(check int) "two rows" 2 (Table.rows t)

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub haystack i nn = needle || scan (i + 1)) in
  nn = 0 || scan 0

let test_table_rowf () =
  let t = Table.create [ "a"; "b"; "c" ] in
  Table.add_rowf t "%d|%s|%.1f" 5 "hi" 2.5;
  Alcotest.(check int) "one row" 1 (Table.rows t);
  let s = Table.render t in
  Alcotest.(check bool) "contains formatted cell" true (contains_substring s "2.5")

let test_table_pads_short_rows () =
  let t = Table.create [ "a"; "b" ] in
  Table.add_row t [ "only" ];
  Alcotest.(check int) "row accepted" 1 (Table.rows t)

let test_table_rejects_long_rows () =
  let t = Table.create [ "a" ] in
  Alcotest.check_raises "too many cells" (Invalid_argument "Table.add_row: too many cells")
    (fun () -> Table.add_row t [ "x"; "y" ])

(* --- Json --------------------------------------------------------------- *)

module Json = Crn_stats.Json

let test_json_escape () =
  Alcotest.(check string) "plain" "\"abc\"" (Json.escape "abc");
  Alcotest.(check string) "quote" "\"a\\\"b\"" (Json.escape "a\"b");
  Alcotest.(check string) "backslash" "\"a\\\\b\"" (Json.escape "a\\b");
  Alcotest.(check string) "newline" "\"a\\nb\"" (Json.escape "a\nb");
  Alcotest.(check string) "control" "\"\\u0001\"" (Json.escape "\x01")

let test_json_compact () =
  let v =
    Json.Obj
      [ ("a", Json.Int 1); ("b", Json.List [ Json.Bool true; Json.Null ]) ]
  in
  Alcotest.(check string) "compact form" {|{"a":1,"b":[true,null]}|}
    (Json.to_string ~compact:true v)

let test_json_nonfinite_floats () =
  Alcotest.(check string) "nan is null" "null" (Json.to_string ~compact:true (Json.Float nan));
  Alcotest.(check string) "inf is null" "null"
    (Json.to_string ~compact:true (Json.Float infinity));
  Alcotest.(check string) "finite kept" "1.5" (Json.to_string ~compact:true (Json.Float 1.5))

let test_json_of_table () =
  let t = Table.create [ "n"; "median"; "label" ] in
  Table.add_row t [ "8"; "120.5"; "ok" ];
  let v = Json.of_table ~title:"demo" t in
  Alcotest.(check string) "title" {|"demo"|}
    (Json.to_string ~compact:true (Option.get (Json.member "title" v)));
  (match Json.member "rows" v with
  | Some (Json.List [ Json.List [ a; b; c ] ]) ->
      Alcotest.(check bool) "int cell" true (a = Json.Int 8);
      Alcotest.(check bool) "float cell" true (b = Json.Float 120.5);
      Alcotest.(check bool) "string cell" true (c = Json.String "ok")
  | _ -> Alcotest.fail "rows shape");
  Alcotest.(check bool) "missing member" true (Json.member "nope" v = None)

let test_json_of_summary () =
  let v = Json.of_summary (Summary.of_ints [| 1; 2; 3; 4 |]) in
  Alcotest.(check bool) "count member" true (Json.member "count" v = Some (Json.Int 4));
  Alcotest.(check bool) "mean member" true (Json.member "mean" v = Some (Json.Float 2.5))

(* A deliberately tiny JSON parser — just enough to round-trip what
   Json.to_string emits, so the writer is checked against independent
   logic rather than against itself. *)
let parse_json (s : string) : Json.t =
  let pos = ref 0 in
  let peek () = s.[!pos] in
  let advance () = incr pos in
  let rec skip_ws () =
    if !pos < String.length s && (peek () = ' ' || peek () = '\n') then begin
      advance ();
      skip_ws ()
    end
  in
  let expect c =
    if peek () <> c then Alcotest.failf "parse: expected %c at %d" c !pos;
    advance ()
  in
  let literal word v =
    String.iter (fun c -> expect c) word;
    v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (match peek () with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              let code = int_of_string ("0x" ^ String.sub s (!pos + 1) 4) in
              pos := !pos + 4;
              Buffer.add_char b (Char.chr code)
          | c -> Buffer.add_char b c);
          advance ();
          go ()
      | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < String.length s
      && (match peek () with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false)
    do
      advance ()
    done;
    let lit = String.sub s start (!pos - start) in
    match int_of_string_opt lit with
    | Some i -> Json.Int i
    | None -> Json.Float (float_of_string lit)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | 't' -> literal "true" (Json.Bool true)
    | 'f' -> literal "false" (Json.Bool false)
    | 'n' -> literal "null" Json.Null
    | '"' -> Json.String (parse_string ())
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin
          advance ();
          Json.List []
        end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          Json.List (List.rev !items)
        end
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then begin
          advance ();
          Json.Obj []
        end
        else begin
          let parse_member () =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            (key, parse_value ())
          in
          let members = ref [ parse_member () ] in
          skip_ws ();
          while peek () = ',' do
            advance ();
            members := parse_member () :: !members;
            skip_ws ()
          done;
          expect '}';
          Json.Obj (List.rev !members)
        end
    | _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> String.length s then Alcotest.failf "parse: trailing input at %d" !pos;
  v

let roundtrip_value =
  Json.Obj
    [
      ("title", Json.String "sweep over n \"quoted\"\nsecond line");
      ("count", Json.Int 42);
      ("negative", Json.Int (-7));
      ("median", Json.Float 120.5);
      ("tiny", Json.Float 1e-9);
      ("nan_becomes_null", Json.Float nan);
      ("flags", Json.List [ Json.Bool true; Json.Bool false; Json.Null ]);
      ("empty_list", Json.List []);
      ("empty_obj", Json.Obj []);
      ( "nested",
        Json.List
          [ Json.Obj [ ("rows", Json.List [ Json.Int 1; Json.Int 2 ]) ] ] );
    ]

(* Printing then parsing recovers the value (with nan mapped to Null, which
   is the documented serialization). *)
let expected_after_roundtrip =
  Json.Obj
    (List.map
       (fun (k, v) -> if k = "nan_becomes_null" then (k, Json.Null) else (k, v))
       (match roundtrip_value with Json.Obj ms -> ms | _ -> assert false))

let test_json_roundtrip_compact () =
  let got = parse_json (Json.to_string ~compact:true roundtrip_value) in
  Alcotest.(check bool) "compact roundtrip" true (got = expected_after_roundtrip)

let test_json_roundtrip_pretty () =
  let got = parse_json (Json.to_string roundtrip_value) in
  Alcotest.(check bool) "pretty roundtrip" true (got = expected_after_roundtrip)

let test_json_write_is_parseable () =
  let path = Filename.temp_file "crn_json" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Json.write ~path roundtrip_value;
      let ic = open_in path in
      let content = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check bool) "ends with newline" true
        (String.length content > 0 && content.[String.length content - 1] = '\n');
      let got = parse_json (String.trim content) in
      Alcotest.(check bool) "file roundtrip" true (got = expected_after_roundtrip))

(* --- Json.of_string ----------------------------------------------------- *)

let ok_of_string s =
  match Json.of_string s with
  | Ok v -> v
  | Error msg -> Alcotest.failf "of_string %S: %s" s msg

let test_of_string_roundtrip () =
  List.iter
    (fun form ->
      let got = ok_of_string (form roundtrip_value) in
      Alcotest.(check bool) "of_string roundtrip" true (got = expected_after_roundtrip))
    [ Json.to_string ~compact:true; Json.to_string ~compact:false ]

let test_of_string_adversarial_strings () =
  (* Every control character, the JSON specials, DEL and multi-byte UTF-8
     must survive escape + parse byte-exactly. *)
  let adversarial =
    List.init 0x20 (fun i -> Printf.sprintf "a%cb" (Char.chr i))
    @ [
        "";
        "\"";
        "\\";
        "\\\"";
        "a\"b\\c\nd\te";
        "\x7f";
        "\xc3\xa9";  (* é *)
        "\xe2\x82\xac";  (* € *)
        "\xf0\x9f\x93\xa1";  (* a 4-byte emoji: needs a surrogate pair as \u *)
        String.init 64 Char.chr;
      ]
  in
  List.iter
    (fun s ->
      match ok_of_string (Json.escape s) with
      | Json.String s' -> Alcotest.(check string) "string survives" s s'
      | _ -> Alcotest.failf "escape %S did not parse back to a string" s)
    adversarial

let test_of_string_escapes () =
  (* Decoding of explicit escape sequences, including surrogate pairs. *)
  let cases =
    [
      ({|"A"|}, "A");
      ({|"é"|}, "\xc3\xa9");
      ({|"€"|}, "\xe2\x82\xac");
      ({|"😀"|}, "\xf0\x9f\x98\x80");
      ({|"\n\r\t\b\f\/\\\""|}, "\n\r\t\b\012/\\\"");
      ({|"\u0000"|}, "\x00");
    ]
  in
  List.iter
    (fun (input, want) ->
      match ok_of_string input with
      | Json.String got -> Alcotest.(check string) input want got
      | _ -> Alcotest.failf "%s did not parse to a string" input)
    cases

let test_of_string_numbers () =
  Alcotest.(check bool) "int" true (ok_of_string "42" = Json.Int 42);
  Alcotest.(check bool) "negative int" true (ok_of_string "-7" = Json.Int (-7));
  Alcotest.(check bool) "float" true (ok_of_string "1.5" = Json.Float 1.5);
  Alcotest.(check bool) "exponent is float" true (ok_of_string "1e3" = Json.Float 1000.0);
  Alcotest.(check bool)
    "negative exponent" true
    (ok_of_string "2.5e-1" = Json.Float 0.25)

let test_of_string_rejects () =
  let rejected =
    [
      "";
      "{";
      "[1,]";
      "{\"a\":}";
      "\"unterminated";
      "\"\x01\"";  (* raw control char inside a string *)
      {|"\ud83d"|};  (* lone high surrogate *)
      {|"\ude00"|};  (* lone low surrogate *)
      {|"\ud83dx"|};  (* high surrogate not followed by an escape *)
      "01";  (* leading zero *)
      "1 2";  (* trailing garbage *)
      "nul";
      "+1";
      "'single'";
    ]
  in
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok v ->
          Alcotest.failf "of_string %S unexpectedly parsed: %s" s
            (Json.to_string ~compact:true v)
      | Error _ -> ())
    rejected

let test_of_string_nested () =
  (* Duplicate keys kept in order; deep nesting; insignificant whitespace. *)
  match ok_of_string " { \"a\" : [ 1 , { \"a\" : null } ] , \"a\" : true } " with
  | Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Obj [ ("a", Json.Null) ] ]);
               ("a", Json.Bool true) ] ->
      ()
  | v -> Alcotest.failf "unexpected parse: %s" (Json.to_string ~compact:true v)

(* --- Series ------------------------------------------------------------ *)

let test_series_exponent () =
  let s = Series.make "quad" (List.init 10 (fun i ->
      let x = float_of_int (i + 1) in
      (x, x *. x)))
  in
  checkf_loose "exponent 2" 2.0 (Series.scaling_exponent s)

let test_series_plot_nonempty () =
  let s = Series.of_ints "line" [ (1, 1); (2, 2); (3, 3) ] in
  let out = Series.plot [ s ] in
  Alcotest.(check bool) "plot renders" true (String.length out > 50)

let test_series_plot_empty () =
  Alcotest.(check string) "empty plot" "(empty plot)\n" (Series.plot [])

(* --- properties -------------------------------------------------------- *)

let prop_percentile_between_min_max =
  QCheck.Test.make ~name:"percentile stays within [min,max]" ~count:300
    QCheck.(pair (list_of_size Gen.(1 -- 40) (float_bound_exclusive 1000.0)) (float_bound_inclusive 100.0))
    (fun (xs, p) ->
      let a = Array.of_list xs in
      let v = Summary.percentile a p in
      let lo = Array.fold_left min a.(0) a and hi = Array.fold_left max a.(0) a in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile is monotone in p" ~count:300
    QCheck.(list_of_size Gen.(2 -- 40) (float_bound_exclusive 1000.0))
    (fun xs ->
      let a = Array.of_list xs in
      let prev = ref (Summary.percentile a 0.0) in
      let ok = ref true in
      List.iter
        (fun p ->
          let v = Summary.percentile a p in
          if v < !prev -. 1e-9 then ok := false;
          prev := v)
        [ 10.0; 25.0; 50.0; 75.0; 90.0; 100.0 ];
      !ok)

let prop_linear_recovers_line =
  QCheck.Test.make ~name:"linear fit recovers exact lines" ~count:200
    QCheck.(pair (float_range (-50.0) 50.0) (float_range (-50.0) 50.0))
    (fun (slope, intercept) ->
      let pts = Array.init 8 (fun i ->
          let x = float_of_int i in
          (x, (slope *. x) +. intercept))
      in
      let l = Fit.linear pts in
      Float.abs (l.Fit.slope -. slope) < 1e-6
      && Float.abs (l.Fit.intercept -. intercept) < 1e-6)

let prop_histogram_conserves_count =
  QCheck.Test.make ~name:"histogram conserves observation count" ~count:200
    QCheck.(list_of_size Gen.(1 -- 100) (int_bound 1000))
    (fun xs ->
      let h = Histogram.of_ints ~bins:7 (Array.of_list xs) in
      Histogram.count h = List.length xs)

let () =
  Alcotest.run "crn_stats"
    [
      ( "summary",
        [
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "mean singleton" `Quick test_mean_singleton;
          Alcotest.test_case "variance" `Quick test_variance;
          Alcotest.test_case "stddev singleton" `Quick test_stddev_singleton;
          Alcotest.test_case "percentile interpolation" `Quick test_percentile_interpolation;
          Alcotest.test_case "percentile input untouched" `Quick test_percentile_unsorted_input;
          Alcotest.test_case "median odd" `Quick test_median_odd;
          Alcotest.test_case "percentile edge cases" `Quick test_percentile_edges;
          Alcotest.test_case "summary record" `Quick test_summary_record;
          Alcotest.test_case "summary singleton record" `Quick
            test_summary_singleton_record;
          Alcotest.test_case "empty rejected" `Quick test_empty_rejected;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "basic binning" `Quick test_histogram_basic;
          Alcotest.test_case "clamping" `Quick test_histogram_clamps;
          Alcotest.test_case "of_ints" `Quick test_histogram_of_ints;
          Alcotest.test_case "bin bounds" `Quick test_histogram_bounds;
          Alcotest.test_case "edge cases" `Quick test_histogram_edges;
          Alcotest.test_case "all-equal sample" `Quick test_histogram_all_equal;
        ] );
      ( "fit",
        [
          Alcotest.test_case "linear exact" `Quick test_linear_exact;
          Alcotest.test_case "linear flat" `Quick test_linear_flat;
          Alcotest.test_case "log-log exponent" `Quick test_log_log_exponent;
          Alcotest.test_case "log-log rejects nonpositive" `Quick test_log_log_rejects_nonpositive;
          Alcotest.test_case "semilog" `Quick test_semilog;
          Alcotest.test_case "pearson sign" `Quick test_pearson_sign;
          Alcotest.test_case "degenerate inputs" `Quick test_fit_degenerate;
        ] );
      ( "table+series",
        [
          Alcotest.test_case "table render" `Quick test_table_render;
          Alcotest.test_case "table add_rowf" `Quick test_table_rowf;
          Alcotest.test_case "table pads short rows" `Quick test_table_pads_short_rows;
          Alcotest.test_case "table rejects long rows" `Quick test_table_rejects_long_rows;
          Alcotest.test_case "series exponent" `Quick test_series_exponent;
          Alcotest.test_case "series plot" `Quick test_series_plot_nonempty;
          Alcotest.test_case "series empty plot" `Quick test_series_plot_empty;
        ] );
      ( "json",
        [
          Alcotest.test_case "escaping" `Quick test_json_escape;
          Alcotest.test_case "compact form" `Quick test_json_compact;
          Alcotest.test_case "non-finite floats" `Quick test_json_nonfinite_floats;
          Alcotest.test_case "of_table" `Quick test_json_of_table;
          Alcotest.test_case "of_summary" `Quick test_json_of_summary;
          Alcotest.test_case "roundtrip compact" `Quick test_json_roundtrip_compact;
          Alcotest.test_case "roundtrip pretty" `Quick test_json_roundtrip_pretty;
          Alcotest.test_case "write is parseable" `Quick test_json_write_is_parseable;
          Alcotest.test_case "of_string roundtrip" `Quick test_of_string_roundtrip;
          Alcotest.test_case "of_string adversarial strings" `Quick
            test_of_string_adversarial_strings;
          Alcotest.test_case "of_string escapes" `Quick test_of_string_escapes;
          Alcotest.test_case "of_string numbers" `Quick test_of_string_numbers;
          Alcotest.test_case "of_string rejects" `Quick test_of_string_rejects;
          Alcotest.test_case "of_string nested" `Quick test_of_string_nested;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_percentile_between_min_max;
            prop_percentile_monotone;
            prop_linear_recovers_line;
            prop_histogram_conserves_count;
          ] );
    ]
