(* Tests for the microarchitectural substrate: caches, TLB, predictors and
   the memory system (MSHRs, in-order controller queue, defense
   structures). *)

open Amulet_uarch

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

let mk_cache ?(sets = 4) ?(ways = 2) () =
  Cache.create ~name:"T" ~sets ~ways ~line_bytes:64 ()

let test_cache_install_probe () =
  let c = mk_cache () in
  checkb "miss initially" false (Cache.probe c 0x1000);
  checkb "no evict on free way" true (Cache.install c 0x1000 = None);
  checkb "hit after install" true (Cache.probe c 0x1000);
  checki "occupancy" 1 (Cache.occupancy c)

let test_cache_line_mapping () =
  let c = mk_cache () in
  checki "line of addr" 0x1000 (Cache.line_of c 0x103F);
  checki "next line" 0x1040 (Cache.line_of c 0x1040);
  (* 4 sets x 64B lines: 0x1000 and 0x1100 share set 0 *)
  checki "set wrap" (Cache.set_of c 0x1000) (Cache.set_of c 0x1100)

let test_cache_lru_eviction () =
  let c = mk_cache () in
  (* fill set 0 (2 ways) then install a third line: LRU must go *)
  ignore (Cache.install c 0x1000);
  ignore (Cache.install c 0x1100);
  ignore (Cache.touch c 0x1000);
  (* 0x1100 is now LRU *)
  checkb "victim is lru" true (Cache.victim_of c 0x1200 = Some 0x1100);
  (match Cache.install c 0x1200 with
  | Some v -> checki "evicted lru" 0x1100 v
  | None -> Alcotest.fail "expected eviction");
  checkb "old line gone" false (Cache.probe c 0x1100);
  checkb "mru survives" true (Cache.probe c 0x1000)

let test_cache_probe_does_not_touch () =
  let c = mk_cache () in
  ignore (Cache.install c 0x1000);
  ignore (Cache.install c 0x1100);
  (* probing 0x1000 (unlike touching) must not refresh it *)
  ignore (Cache.probe c 0x1000);
  checkb "victim unchanged by probe" true (Cache.victim_of c 0x1200 = Some 0x1000)

let test_cache_force_replacement () =
  let c = mk_cache () in
  checkb "no replacement on non-full set" true (Cache.force_replacement c 0x1000 = None);
  ignore (Cache.install c 0x1000);
  ignore (Cache.install c 0x1100);
  (match Cache.force_replacement c 0x1200 with
  | Some v -> checki "uv1 evicts lru" 0x1000 v
  | None -> Alcotest.fail "expected forced replacement");
  checki "occupancy reduced" 1 (Cache.occupancy c)

let test_cache_invalidate_and_reset () =
  let c = mk_cache () in
  ignore (Cache.install c 0x1000);
  checkb "invalidate present" true (Cache.invalidate c 0x1000);
  checkb "invalidate absent" false (Cache.invalidate c 0x1000);
  ignore (Cache.install c 0x2000);
  Cache.reset c;
  checki "reset empties" 0 (Cache.occupancy c)

let test_cache_snapshot_restore () =
  let c = mk_cache () in
  ignore (Cache.install c 0x1000);
  ignore (Cache.install c 0x1100);
  let snap = Cache.snapshot c in
  ignore (Cache.install c 0x1200);
  ignore (Cache.invalidate c 0x1000);
  Cache.restore c snap;
  checkb "restored tags" true (Cache.tags c = [ 0x1000; 0x1100 ]);
  (* LRU order restored too: victim must be as before the snapshot *)
  checkb "restored lru" true (Cache.victim_of c 0x1200 = Some 0x1000)

let cache_tags_sorted_prop =
  QCheck2.Test.make ~name:"cache tags are sorted and unique" ~count:100
    QCheck2.Gen.(list_size (int_range 0 100) (int_bound 63))
    (fun lines ->
      let c = Cache.create ~name:"P" ~sets:8 ~ways:4 ~line_bytes:64 () in
      List.iter (fun l -> ignore (Cache.install c (l * 64))) lines;
      let tags = Cache.tags c in
      tags = List.sort_uniq compare tags
      && Cache.occupancy c <= 8 * 4)

(* ------------------------------------------------------------------ *)
(* TLB                                                                 *)
(* ------------------------------------------------------------------ *)

let test_tlb_basics () =
  let t = Tlb.create ~entries:2 () in
  checkb "miss" true (Tlb.access t 5 = `Miss);
  checkb "hit" true (Tlb.access t 5 = `Hit);
  checkb "second" true (Tlb.access t 6 = `Miss);
  (* touch 5, then insert 7: LRU 6 must be evicted *)
  ignore (Tlb.access t 5);
  ignore (Tlb.access t 7);
  checkb "lru evicted" false (Tlb.probe t 6);
  checkb "mru kept" true (Tlb.probe t 5);
  checkb "pages sorted" true (Tlb.pages t = [ 5; 7 ])

let test_tlb_page_of_addr () =
  checki "page" 1 (Tlb.page_of_addr 0x1abc);
  checki "page 0" 0 (Tlb.page_of_addr 0xFFF)

let test_tlb_snapshot () =
  let t = Tlb.create ~entries:4 () in
  ignore (Tlb.access t 1);
  ignore (Tlb.access t 2);
  let s = Tlb.snapshot t in
  ignore (Tlb.access t 3);
  Tlb.reset t;
  Tlb.restore t s;
  checkb "restored" true (Tlb.pages t = [ 1; 2 ])

(* ------------------------------------------------------------------ *)
(* Branch predictor                                                    *)
(* ------------------------------------------------------------------ *)

let mk_bp () = Branch_pred.create ~history_bits:8 ~table_bits:8 ~btb_bits:4 ()

let test_bp_initial_not_taken () =
  let bp = mk_bp () in
  checkb "weakly not-taken init" false (Branch_pred.predict bp ~pc:0x400000)

let test_bp_training () =
  let bp = mk_bp () in
  let pc = 0x400040 in
  let h = Branch_pred.history bp in
  Branch_pred.train bp ~pc ~history:h ~taken:true ~target:0x400100;
  Branch_pred.train bp ~pc ~history:h ~taken:true ~target:0x400100;
  checkb "trained taken" true (Branch_pred.predict bp ~pc);
  checkb "btb has target" true (Branch_pred.btb_lookup bp ~pc = Some 0x400100);
  Branch_pred.train bp ~pc ~history:h ~taken:false ~target:0;
  Branch_pred.train bp ~pc ~history:h ~taken:false ~target:0;
  checkb "retrained not-taken" false (Branch_pred.predict bp ~pc)

let test_bp_history_affects_prediction () =
  let bp = mk_bp () in
  let pc = 0x400080 in
  (* train taken under history 0, not-taken under history 1 *)
  Branch_pred.train bp ~pc ~history:0 ~taken:true ~target:0x400200;
  Branch_pred.train bp ~pc ~history:0 ~taken:true ~target:0x400200;
  Branch_pred.set_history bp 0;
  let p0 = Branch_pred.predict bp ~pc in
  Branch_pred.set_history bp 1;
  let p1 = Branch_pred.predict bp ~pc in
  checkb "history-dependent" true (p0 <> p1 || p0)

let test_bp_speculative_history () =
  let bp = mk_bp () in
  Branch_pred.speculate_history bp ~taken:true;
  Branch_pred.speculate_history bp ~taken:false;
  checki "history bits" 0b10 (Branch_pred.history bp);
  Branch_pred.set_history bp 0;
  checki "restored" 0 (Branch_pred.history bp)

let test_bp_snapshot () =
  let bp = mk_bp () in
  Branch_pred.train bp ~pc:0x400000 ~history:0 ~taken:true ~target:0x400100;
  let s = Branch_pred.snapshot bp in
  Branch_pred.train bp ~pc:0x400000 ~history:0 ~taken:true ~target:0x400100;
  Branch_pred.train bp ~pc:0x400044 ~history:3 ~taken:true ~target:0x400200;
  Branch_pred.restore bp s;
  checkb "snapshot restores" true (Branch_pred.snapshot bp = s)

(* ------------------------------------------------------------------ *)
(* Memory-dependence predictor                                         *)
(* ------------------------------------------------------------------ *)

let test_mdp () =
  let m = Mdp.create ~bits:4 in
  checkb "bypass by default" true (Mdp.predict_bypass m ~pc:0x400010);
  Mdp.train_violation m ~pc:0x400010;
  checkb "blocked after violation" false (Mdp.predict_bypass m ~pc:0x400010);
  checkb "other pc unaffected" true (Mdp.predict_bypass m ~pc:0x400054);
  Mdp.train_correct m ~pc:0x400010;
  Mdp.train_correct m ~pc:0x400010;
  checkb "decays back" true (Mdp.predict_bypass m ~pc:0x400010);
  let s = Mdp.snapshot m in
  Mdp.train_violation m ~pc:0x400010;
  Mdp.restore m s;
  checkb "snapshot restores" true (Mdp.predict_bypass m ~pc:0x400010)

(* ------------------------------------------------------------------ *)
(* Memory system                                                       *)
(* ------------------------------------------------------------------ *)

let mk_ms ?(cfg = Config.default) () =
  let log = Event.create () in
  Memsys.create cfg log, log

let drain ms ~from ~until =
  let resps = ref [] in
  for now = from to until do
    Memsys.tick ms ~now;
    resps := List.rev_append (Memsys.take_responses ms ~now) !resps
  done;
  List.rev !resps

let test_memsys_miss_then_hit () =
  let ms, _ = mk_ms () in
  let n =
    Memsys.request_access ms ~now:1 ~rob_id:1 ~pc:0x400000 ~addr:0x1000
      ~width:Amulet_isa.Width.W64 ~kind:Memsys.Demand_load ~spec:false
  in
  checki "one line" 1 n;
  let resps = drain ms ~from:1 ~until:100 in
  checkb "response delivered" true (List.mem (1, 0x1000) resps);
  checkb "line installed" true (List.mem 0x1000 (Memsys.l1d_tags ms));
  (* second access hits: response latency = l1 *)
  ignore
    (Memsys.request_access ms ~now:101 ~rob_id:2 ~pc:0x400000 ~addr:0x1008
       ~width:Amulet_isa.Width.W64 ~kind:Memsys.Demand_load ~spec:false);
  let resps = drain ms ~from:101 ~until:(101 + Config.default.Config.l1_latency) in
  checkb "hit response fast" true (List.mem (2, 0x1000) resps)

let test_memsys_split_access () =
  let ms, log = mk_ms () in
  Event.set_enabled log true;
  let n =
    Memsys.request_access ms ~now:1 ~rob_id:1 ~pc:0x400000 ~addr:0x103C
      ~width:Amulet_isa.Width.W64 ~kind:Memsys.Demand_load ~spec:false
  in
  checki "two lines" 2 n;
  checkb "split event" true
    (List.exists (function Event.Split_access _ -> true | _ -> false) (Event.events log));
  let resps = drain ms ~from:1 ~until:100 in
  checkb "both lines respond" true
    (List.mem (1, 0x1000) resps && List.mem (1, 0x1040) resps)

let test_memsys_mshr_merge () =
  let ms, log = mk_ms () in
  Event.set_enabled log true;
  ignore
    (Memsys.request_access ms ~now:1 ~rob_id:1 ~pc:0 ~addr:0x1000
       ~width:Amulet_isa.Width.W64 ~kind:Memsys.Demand_load ~spec:false);
  ignore
    (Memsys.request_access ms ~now:1 ~rob_id:2 ~pc:0 ~addr:0x1008
       ~width:Amulet_isa.Width.W64 ~kind:Memsys.Demand_load ~spec:false);
  let resps = drain ms ~from:1 ~until:100 in
  checkb "both served" true (List.mem (1, 0x1000) resps && List.mem (2, 0x1000) resps);
  (* only one MSHR allocation for the shared line *)
  checki "one alloc" 1
    (List.length
       (List.filter (function Event.Mshr_alloc _ -> true | _ -> false) (Event.events log)))

let test_memsys_mshr_exhaustion_blocks_queue () =
  let cfg = { Config.default with Config.mshrs = 1 } in
  let ms, log = mk_ms ~cfg () in
  Event.set_enabled log true;
  ignore
    (Memsys.request_access ms ~now:1 ~rob_id:1 ~pc:0 ~addr:0x1000
       ~width:Amulet_isa.Width.W64 ~kind:Memsys.Demand_load ~spec:false);
  Memsys.tick ms ~now:1;
  (* second miss to a different line cannot get an MSHR *)
  ignore
    (Memsys.request_access ms ~now:2 ~rob_id:2 ~pc:0 ~addr:0x2000
       ~width:Amulet_isa.Width.W64 ~kind:Memsys.Demand_load ~spec:false);
  (* ... and a would-be HIT behind it is blocked (in-order queue) *)
  ignore (drain ms ~from:2 ~until:3);
  checkb "stall recorded" true
    (List.exists (function Event.Mshr_stall _ -> true | _ -> false) (Event.events log));
  let resps = drain ms ~from:4 ~until:200 in
  checkb "eventually both served" true (List.mem (1, 0x1000) resps && List.mem (2, 0x2000) resps)

let test_memsys_invisispec_spec_load_invisible () =
  let cfg =
    Config.with_defense (Config.Invisispec { Config.iv_patched_eviction = true })
      Config.default
  in
  let ms, _ = mk_ms ~cfg () in
  ignore
    (Memsys.request_access ms ~now:1 ~rob_id:1 ~pc:0 ~addr:0x1000
       ~width:Amulet_isa.Width.W64 ~kind:Memsys.Spec_load ~spec:true);
  let resps = drain ms ~from:1 ~until:100 in
  checkb "spec load served" true (List.mem (1, 0x1000) resps);
  checkb "nothing installed in L1D" true (Memsys.l1d_tags ms = []);
  (* expose installs it *)
  Memsys.request_expose ms ~now:101 ~rob_id:1 ~line:0x1000;
  ignore (drain ms ~from:101 ~until:200);
  checkb "expose installs" true (List.mem 0x1000 (Memsys.l1d_tags ms))

let test_memsys_uv1_spec_eviction () =
  (* unpatched InvisiSpec: a spec miss on a full set evicts the LRU line *)
  let cfg =
    {
      (Config.with_defense
         (Config.Invisispec { Config.iv_patched_eviction = false })
         Config.default)
      with
      Config.l1d_sets = 4;
      l1d_ways = 1;
    }
  in
  let ms, log = mk_ms ~cfg () in
  ignore
    (Memsys.request_access ms ~now:1 ~rob_id:1 ~pc:0 ~addr:0x1000
       ~width:Amulet_isa.Width.W64 ~kind:Memsys.Demand_load ~spec:false);
  ignore (drain ms ~from:1 ~until:100);
  checkb "victim present" true (List.mem 0x1000 (Memsys.l1d_tags ms));
  Event.set_enabled log true;
  ignore
    (Memsys.request_access ms ~now:101 ~rob_id:2 ~pc:0 ~addr:0x2000
       ~width:Amulet_isa.Width.W64 ~kind:Memsys.Spec_load ~spec:true);
  ignore (drain ms ~from:101 ~until:200);
  checkb "uv1: victim evicted by spec miss" false (List.mem 0x1000 (Memsys.l1d_tags ms));
  checkb "uv1 event" true
    (List.exists (function Event.Spec_eviction _ -> true | _ -> false) (Event.events log));
  checkb "spec line still not installed" false (List.mem 0x2000 (Memsys.l1d_tags ms))

let test_memsys_cleanupspec_cleanup () =
  let cfg =
    Config.with_defense
      (Config.Cleanupspec
         { Config.cs_patched_store_cleanup = true; cs_patched_split_cleanup = true })
      Config.default
  in
  let ms, _ = mk_ms ~cfg () in
  (* speculative load installs, then squash cleans it up *)
  ignore
    (Memsys.request_access ms ~now:1 ~rob_id:7 ~pc:0 ~addr:0x1000
       ~width:Amulet_isa.Width.W64 ~kind:Memsys.Demand_load ~spec:true);
  ignore (drain ms ~from:1 ~until:100);
  checkb "installed speculatively" true (List.mem 0x1000 (Memsys.l1d_tags ms));
  Memsys.cancel ms ~now:101 ~rob_id:7;
  ignore (drain ms ~from:101 ~until:150);
  checkb "cleaned after squash" false (List.mem 0x1000 (Memsys.l1d_tags ms))

let test_memsys_cleanupspec_uv3_store_not_cleaned () =
  let cfg =
    Config.with_defense
      (Config.Cleanupspec
         { Config.cs_patched_store_cleanup = false; cs_patched_split_cleanup = true })
      Config.default
  in
  let ms, log = mk_ms ~cfg () in
  Event.set_enabled log true;
  ignore
    (Memsys.request_access ms ~now:1 ~rob_id:7 ~pc:0 ~addr:0x1000
       ~width:Amulet_isa.Width.W64 ~kind:Memsys.Store_install ~spec:true);
  ignore (drain ms ~from:1 ~until:100);
  Memsys.cancel ms ~now:101 ~rob_id:7;
  ignore (drain ms ~from:101 ~until:150);
  checkb "uv3: store survives squash" true (List.mem 0x1000 (Memsys.l1d_tags ms));
  checkb "uv3 signature event" true
    (List.exists
       (function Event.Cleanup_missing _ -> true | _ -> false)
       (Event.events log))

let test_memsys_cleanupspec_restores_victim () =
  let cfg =
    {
      (Config.with_defense
         (Config.Cleanupspec
            { Config.cs_patched_store_cleanup = true; cs_patched_split_cleanup = true })
         Config.default)
      with
      Config.l1d_sets = 4;
      l1d_ways = 1;
    }
  in
  let ms, _ = mk_ms ~cfg () in
  ignore
    (Memsys.request_access ms ~now:1 ~rob_id:1 ~pc:0 ~addr:0x1000
       ~width:Amulet_isa.Width.W64 ~kind:Memsys.Demand_load ~spec:false);
  ignore (drain ms ~from:1 ~until:100);
  (* spec load to the same set evicts 0x1000; cleanup must restore it *)
  ignore
    (Memsys.request_access ms ~now:101 ~rob_id:2 ~pc:0 ~addr:0x2000
       ~width:Amulet_isa.Width.W64 ~kind:Memsys.Demand_load ~spec:true);
  ignore (drain ms ~from:101 ~until:200);
  checkb "spec install evicted victim" false (List.mem 0x1000 (Memsys.l1d_tags ms));
  Memsys.cancel ms ~now:201 ~rob_id:2;
  ignore (drain ms ~from:201 ~until:250);
  checkb "spec line cleaned" false (List.mem 0x2000 (Memsys.l1d_tags ms));
  checkb "victim restored" true (List.mem 0x1000 (Memsys.l1d_tags ms))

let test_memsys_speclfb () =
  let cfg =
    Config.with_defense (Config.Speclfb { Config.lfb_patched_first_load = true })
      Config.default
  in
  let ms, _ = mk_ms ~cfg () in
  ignore
    (Memsys.request_access ms ~now:1 ~rob_id:3 ~pc:0 ~addr:0x1000
       ~width:Amulet_isa.Width.W64 ~kind:Memsys.Spec_load ~spec:true);
  let resps = drain ms ~from:1 ~until:100 in
  checkb "lfb serves the load" true (List.mem (3, 0x1000) resps);
  checkb "not installed while unsafe" false (List.mem 0x1000 (Memsys.l1d_tags ms));
  (* promotion on safety *)
  Memsys.request_expose ms ~now:101 ~rob_id:3 ~line:0x1000;
  ignore (drain ms ~from:101 ~until:200);
  checkb "promoted to L1" true (List.mem 0x1000 (Memsys.l1d_tags ms))

let test_memsys_squash_drops_lfb () =
  let cfg =
    Config.with_defense (Config.Speclfb { Config.lfb_patched_first_load = true })
      Config.default
  in
  let ms, _ = mk_ms ~cfg () in
  ignore
    (Memsys.request_access ms ~now:1 ~rob_id:3 ~pc:0 ~addr:0x1000
       ~width:Amulet_isa.Width.W64 ~kind:Memsys.Spec_load ~spec:true);
  ignore (drain ms ~from:1 ~until:100);
  Memsys.cancel ms ~now:101 ~rob_id:3;
  ignore (drain ms ~from:101 ~until:150);
  checkb "dropped, never installed" false (List.mem 0x1000 (Memsys.l1d_tags ms))

let () =
  Alcotest.run ~and_exit:false "uarch"
    [
      ( "cache",
        [
          Alcotest.test_case "install/probe" `Quick test_cache_install_probe;
          Alcotest.test_case "line mapping" `Quick test_cache_line_mapping;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "probe no touch" `Quick test_cache_probe_does_not_touch;
          Alcotest.test_case "force replacement" `Quick test_cache_force_replacement;
          Alcotest.test_case "invalidate/reset" `Quick test_cache_invalidate_and_reset;
          Alcotest.test_case "snapshot/restore" `Quick test_cache_snapshot_restore;
          QCheck_alcotest.to_alcotest cache_tags_sorted_prop;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "basics" `Quick test_tlb_basics;
          Alcotest.test_case "page mapping" `Quick test_tlb_page_of_addr;
          Alcotest.test_case "snapshot" `Quick test_tlb_snapshot;
        ] );
      ( "predictors",
        [
          Alcotest.test_case "bp init" `Quick test_bp_initial_not_taken;
          Alcotest.test_case "bp training" `Quick test_bp_training;
          Alcotest.test_case "bp history" `Quick test_bp_history_affects_prediction;
          Alcotest.test_case "bp speculative history" `Quick test_bp_speculative_history;
          Alcotest.test_case "bp snapshot" `Quick test_bp_snapshot;
          Alcotest.test_case "mdp" `Quick test_mdp;
        ] );
      ( "memsys",
        [
          Alcotest.test_case "miss then hit" `Quick test_memsys_miss_then_hit;
          Alcotest.test_case "split access" `Quick test_memsys_split_access;
          Alcotest.test_case "mshr merge" `Quick test_memsys_mshr_merge;
          Alcotest.test_case "mshr exhaustion" `Quick test_memsys_mshr_exhaustion_blocks_queue;
          Alcotest.test_case "invisispec invisible" `Quick
            test_memsys_invisispec_spec_load_invisible;
          Alcotest.test_case "invisispec uv1" `Quick test_memsys_uv1_spec_eviction;
          Alcotest.test_case "cleanupspec cleanup" `Quick test_memsys_cleanupspec_cleanup;
          Alcotest.test_case "cleanupspec uv3" `Quick
            test_memsys_cleanupspec_uv3_store_not_cleaned;
          Alcotest.test_case "cleanupspec restores victim" `Quick
            test_memsys_cleanupspec_restores_victim;
          Alcotest.test_case "speclfb lfb" `Quick test_memsys_speclfb;
          Alcotest.test_case "speclfb squash" `Quick test_memsys_squash_drops_lfb;
        ] );
    ]

(* appended coverage: drain semantics, prime/flush interactions, event log *)

let test_event_log_toggling () =
  let log = Event.create () in
  Event.record log (Event.Committed { cycle = 1; pc = 0; disasm = "NOP" });
  checkb "disabled by default" true (Event.events log = []);
  Event.set_enabled log true;
  Event.record log (Event.Committed { cycle = 2; pc = 4; disasm = "NOP" });
  Event.record log (Event.Fetched { cycle = 3; pc = 8; disasm = "EXIT" });
  checki "two events in order" 2 (List.length (Event.events log));
  checki "cycle of first" 2 (Event.cycle_of (List.hd (Event.events log)));
  Event.clear log;
  checkb "cleared" true (Event.events log = [])

let test_event_pp_total () =
  (* every constructor renders without raising *)
  let samples =
    [
      Event.Fetched { cycle = 1; pc = 2; disasm = "NOP" };
      Event.Predicted { cycle = 1; pc = 2; taken = true; target = 3 };
      Event.Executed { cycle = 1; pc = 2; disasm = "NOP"; spec = true };
      Event.Mem_access { cycle = 1; pc = 2; kind = Event.Spec_load; addr = 3; line = 0; spec = true };
      Event.Cache_install { cycle = 1; cache = "L1D"; line = 0 };
      Event.Cache_evict { cycle = 1; cache = "L1D"; line = 0 };
      Event.Mshr_alloc { cycle = 1; line = 0 };
      Event.Mshr_stall { cycle = 1; kind = Event.Expose; line = 0 };
      Event.Spec_buffer_fill { cycle = 1; line = 0 };
      Event.Spec_eviction { cycle = 1; line = 0; victim = 64 };
      Event.Expose_issued { cycle = 1; line = 0 };
      Event.Split_access { cycle = 1; pc = 2; line1 = 0; line2 = 64 };
      Event.Cleanup { cycle = 1; line = 0; restored = Some 64 };
      Event.Cleanup_missing { cycle = 1; line = 0; reason = "split" };
      Event.Tlb_fill { cycle = 1; page = 2; tainted = true; by_store = true };
      Event.Taint_blocked { cycle = 1; pc = 2 };
      Event.Lfb_unprotected { cycle = 1; pc = 2; line = 0 };
      Event.Squashed { cycle = 1; pc = 2; reason = Event.Memdep_violation };
      Event.Committed { cycle = 1; pc = 2; disasm = "EXIT" };
    ]
  in
  List.iter
    (fun e ->
      let s = Format.asprintf "%a" Event.pp e in
      checkb "renders" true (String.length s > 0);
      checki "cycle" 1 (Event.cycle_of e))
    samples

let test_config_amplified () =
  let c = Config.amplified ~l1d_ways:2 ~mshrs:2 Config.default in
  checki "ways" 2 c.Config.l1d_ways;
  checki "mshrs" 2 c.Config.mshrs;
  checki "sets unchanged" Config.default.Config.l1d_sets c.Config.l1d_sets;
  checkb "bytes" true (Config.l1d_bytes c = 2 * 64 * 64)

let test_memsys_cancelled_queued_request_dropped () =
  let ms, _ = mk_ms () in
  ignore
    (Memsys.request_access ms ~now:1 ~rob_id:5 ~pc:0 ~addr:0x1000
       ~width:Amulet_isa.Width.W64 ~kind:Memsys.Demand_load ~spec:true);
  (* cancel BEFORE the queue processes: nothing must install *)
  Memsys.cancel ms ~now:1 ~rob_id:5;
  ignore (drain ms ~from:1 ~until:100);
  checkb "queued request dropped" true (Memsys.l1d_tags ms = [])

let test_memsys_cancelled_inflight_still_installs () =
  let ms, _ = mk_ms () in
  ignore
    (Memsys.request_access ms ~now:1 ~rob_id:5 ~pc:0 ~addr:0x1000
       ~width:Amulet_isa.Width.W64 ~kind:Memsys.Demand_load ~spec:true);
  (* let the MSHR allocate, then cancel: the fill continues (the baseline
     Spectre leak) but no response is delivered *)
  Memsys.tick ms ~now:2;
  Memsys.cancel ms ~now:3 ~rob_id:5;
  let resps = drain ms ~from:3 ~until:100 in
  checkb "no response to squashed load" false (List.exists (fun (r, _) -> r = 5) resps);
  checkb "fill still installs (leak)" true (List.mem 0x1000 (Memsys.l1d_tags ms))

let test_inflight_counter () =
  let ms, _ = mk_ms () in
  checki "idle" 0 (Memsys.inflight ms);
  ignore
    (Memsys.request_access ms ~now:1 ~rob_id:1 ~pc:0 ~addr:0x1000
       ~width:Amulet_isa.Width.W64 ~kind:Memsys.Demand_load ~spec:false);
  checkb "busy" true (Memsys.inflight ms > 0);
  ignore (drain ms ~from:1 ~until:100);
  checki "drained" 0 (Memsys.inflight ms)

(* A booted simulator drops the boot program's pipeline arena and decoded
   code: what stays reachable is the structures a test run needs (about
   80 k words on one page), not the ~3 M words the boot pipeline took. *)
let test_booted_simulator_bound () =
  List.iter
    (fun (d : Amulet_defenses.Defense.t) ->
      let sim = Simulator.create (Amulet_defenses.Defense.config d) in
      let words = Obj.reachable_words (Obj.repr sim) in
      checkb
        (Printf.sprintf "%s booted: %d words reachable" d.Amulet_defenses.Defense.name
           words)
        true (words < 100_000))
    Amulet_defenses.Defense.[ speclfb; cleanupspec; invisispec ]

let () =
  Alcotest.run "uarch-extra"
    [
      ( "events",
        [
          Alcotest.test_case "log toggling" `Quick test_event_log_toggling;
          Alcotest.test_case "pp total" `Quick test_event_pp_total;
        ] );
      ("config", [ Alcotest.test_case "amplified" `Quick test_config_amplified ]);
      ( "simulator",
        [ Alcotest.test_case "booted memory bound" `Quick test_booted_simulator_bound ] );
      ( "cancellation",
        [
          Alcotest.test_case "queued dropped" `Quick
            test_memsys_cancelled_queued_request_dropped;
          Alcotest.test_case "inflight installs" `Quick
            test_memsys_cancelled_inflight_still_installs;
          Alcotest.test_case "inflight counter" `Quick test_inflight_counter;
        ] );
    ]
