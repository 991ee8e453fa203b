(* Unit tests for the telemetry registry: hot-path semantics, the noop
   registry, the monotonic-safe clock, and snapshot algebra
   (diff/merge/filter), including the JSON export, and golden outputs of
   the shared JSON writer. *)

module Obs = Amulet_obs.Obs
module Json = Amulet_obs.Json

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)

(* ------------------------------------------------------------------ *)
(* Registry + metrics                                                  *)
(* ------------------------------------------------------------------ *)

let test_counters () =
  let r = Obs.create () in
  let c = Obs.counter r "a" in
  Obs.incr c;
  Obs.add c 4;
  checki "incr + add" 5 (Obs.value c);
  let c' = Obs.counter r "a" in
  Obs.incr c';
  checki "same name, same cell" 6 (Obs.value c)

let test_enable_toggle () =
  let r = Obs.create () in
  let c = Obs.counter r "a" in
  Obs.set_enabled r false;
  Obs.incr c;
  checki "disabled: no count" 0 (Obs.value c);
  Obs.set_enabled r true;
  Obs.incr c;
  checki "re-enabled: counts" 1 (Obs.value c)

let test_noop_registry () =
  let c = Obs.counter Obs.noop "a" in
  Obs.incr c;
  Obs.add c 100;
  checki "noop never records" 0 (Obs.value c);
  Obs.set_enabled Obs.noop true;
  Obs.incr c;
  checki "noop cannot be enabled" 0 (Obs.value c);
  checkb "noop reports disabled" false (Obs.is_enabled Obs.noop)

let test_gauges_timers_histograms () =
  let r = Obs.create () in
  let g = Obs.gauge r "g" in
  Obs.set_gauge g 2.5;
  checkf "gauge" 2.5 (Obs.gauge_value g);
  let tm = Obs.timer r "t" in
  Obs.record tm 0.5;
  Obs.record tm (-1.0);
  (* negative durations (clock stepped back) are clamped, not recorded *)
  let s = Obs.Snapshot.of_registry r in
  let tv = List.assoc "t" s.Obs.Snapshot.timers in
  checki "timer events" 2 tv.Obs.Snapshot.events;
  checkf "negative durations clamp to 0" 0.5 tv.Obs.Snapshot.total_s;
  let h = Obs.histogram r "h" in
  Obs.observe h 1e-6;
  Obs.observe h 1.0;
  let s = Obs.Snapshot.of_registry r in
  let hv = List.assoc "h" s.Obs.Snapshot.histograms in
  checki "histogram observations" 2 hv.Obs.Snapshot.observations;
  checkb "p50 <= p99" true
    (Obs.Snapshot.percentile hv 50. <= Obs.Snapshot.percentile hv 99.)

let test_clock_clamp () =
  let future = Obs.Clock.now_s () +. 3600. in
  checkf "elapsed since the future clamps to 0" 0.
    (Obs.Clock.elapsed_s ~since:future);
  checkf "elapsed_ms clamps too" 0. (Obs.Clock.elapsed_ms ~since:future);
  checkb "elapsed since the past is positive" true
    (Obs.Clock.elapsed_s ~since:(Obs.Clock.now_s () -. 1.) > 0.)

(* ------------------------------------------------------------------ *)
(* Snapshot algebra                                                    *)
(* ------------------------------------------------------------------ *)

let mk_snap pairs =
  let r = Obs.create () in
  List.iter (fun (n, v) -> Obs.add (Obs.counter r n) v) pairs;
  Obs.Snapshot.of_registry r

let test_snapshot_diff () =
  let older = mk_snap [ "a", 1; "b", 5 ] in
  let newer = mk_snap [ "a", 4; "b", 5; "c", 2 ] in
  let d = Obs.Snapshot.diff ~older ~newer in
  checki "changed counter" 3 (Obs.Snapshot.counter_value d "a");
  checki "unchanged counter" 0 (Obs.Snapshot.counter_value d "b");
  checki "new counter kept" 2 (Obs.Snapshot.counter_value d "c")

let test_snapshot_merge () =
  let a = mk_snap [ "a", 1; "b", 2 ] in
  let b = mk_snap [ "b", 3; "c", 4 ] in
  let m = Obs.Snapshot.merge a b in
  checki "merge sums" 5 (Obs.Snapshot.counter_value m "b");
  checki "merge keeps left-only" 1 (Obs.Snapshot.counter_value m "a");
  checki "merge keeps right-only" 4 (Obs.Snapshot.counter_value m "c")

let test_snapshot_filter_json () =
  let s = mk_snap [ "uarch.l1d.hits", 7; "engine.batches", 3 ] in
  let u = Obs.Snapshot.filter (fun n -> String.length n >= 6 && String.sub n 0 6 = "uarch.") s in
  checki "filter keeps matching" 7 (Obs.Snapshot.counter_value u "uarch.l1d.hits");
  checki "filter drops others" 0 (Obs.Snapshot.counter_value u "engine.batches");
  checki "filtered counter list" 1 (List.length u.Obs.Snapshot.counters);
  let json = Obs.Snapshot.to_json s in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  checkb "json has counter name" true (contains "\"uarch.l1d.hits\":7" json);
  checkb "json is an object" true
    (String.length json > 1 && json.[0] = '{' && json.[String.length json - 1] = '}')

(* ------------------------------------------------------------------ *)
(* JSON writer                                                         *)
(* ------------------------------------------------------------------ *)

let check_json name expected j =
  Alcotest.check Alcotest.string name expected (Json.to_string j)

let test_json_escaping () =
  check_json "quote" {|"\""|} (Json.Str "\"");
  check_json "backslash" {|"\\"|} (Json.Str "\\");
  check_json "newline" {|"\n"|} (Json.Str "\n");
  check_json "carriage return" {|"\r"|} (Json.Str "\r");
  check_json "tab" {|"\t"|} (Json.Str "\t");
  check_json "control byte" {|"\u0001"|} (Json.Str "\001");
  check_json "mixed" {|"a\"b\\c\nd\u001fe"|} (Json.Str "a\"b\\c\nd\031e");
  check_json "escaped key" {|{"k\"\n":1}|} (Json.Obj [ ("k\"\n", Json.Int 1) ])

let test_json_floats () =
  check_json "integral" "3.0" (Json.Float 3.);
  check_json "negative integral" "-3.0" (Json.Float (-3.));
  check_json "zero" "0.0" (Json.Float 0.);
  check_json "fraction" "0.1" (Json.Float 0.1);
  check_json "nine significant digits" "0.123456789"
    (Json.Float 0.1234567890123);
  check_json "largest fixed-point integral" "999999999999999.0"
    (Json.Float 999999999999999.);
  check_json "1e15 switches to %g" "1e+15" (Json.Float 1e15);
  check_json "beyond 1e15" "1.5e+15" (Json.Float 1.5e15)

let test_json_structure () =
  check_json "empty object" "{}" (Json.Obj []);
  check_json "empty list" "[]" (Json.List []);
  check_json "scalars" {|[null,true,false,-7,"s"]|}
    (Json.List
       [ Json.Null; Json.Bool true; Json.Bool false; Json.Int (-7); Json.Str "s" ]);
  check_json "nested, key order preserved"
    {|{"z":{"b":1,"a":[{},[]]},"a":null,"m":{"y":2.5,"x":"v"}}|}
    (Json.Obj
       [
         ("z", Json.Obj [ ("b", Json.Int 1); ("a", Json.List [ Json.Obj []; Json.List [] ]) ]);
         ("a", Json.Null);
         ("m", Json.Obj [ ("y", Json.Float 2.5); ("x", Json.Str "v") ]);
       ]);
  check_json "option" {|[null,4]|}
    (Json.List [ Json.option (fun i -> Json.Int i) None; Json.option (fun i -> Json.Int i) (Some 4) ])

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "enable toggle" `Quick test_enable_toggle;
          Alcotest.test_case "noop registry" `Quick test_noop_registry;
          Alcotest.test_case "gauges/timers/histograms" `Quick
            test_gauges_timers_histograms;
          Alcotest.test_case "clock clamp" `Quick test_clock_clamp;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "diff" `Quick test_snapshot_diff;
          Alcotest.test_case "merge" `Quick test_snapshot_merge;
          Alcotest.test_case "filter + json" `Quick test_snapshot_filter_json;
        ] );
      ( "json",
        [
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          Alcotest.test_case "floats" `Quick test_json_floats;
          Alcotest.test_case "structure" `Quick test_json_structure;
        ] );
    ]
