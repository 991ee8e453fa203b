(** Structured fault taxonomy for campaign supervision: the fault values the
    executor and fuzzer report, the per-class counters campaigns aggregate,
    and the chaos injector the robustness self-tests use. *)

type exn_info = { exn_name : string; backtrace : string }

let exn_info exn =
  { exn_name = Printexc.to_string exn; backtrace = Printexc.get_backtrace () }

type t =
  | Sim_divergence of string
  | Emu_fault of string
  | Decode_error of string
  | Fuel_exhausted of string
  | Deadline_exceeded of { elapsed_ms : float; deadline_ms : float }
  | Empty_population
  | Injected of string
  | Instance_crash of exn_info
  | Worker_lost of string
  | Protocol of string

let to_string = function
  | Sim_divergence s -> "simulator divergence: " ^ s
  | Emu_fault s -> "emulator fault: " ^ s
  | Decode_error s -> "decode error: " ^ s
  | Fuel_exhausted s -> "fuel exhausted: " ^ s
  | Deadline_exceeded { elapsed_ms; deadline_ms } ->
      Printf.sprintf "round deadline exceeded: %.1f ms elapsed (budget %.1f ms)"
        elapsed_ms deadline_ms
  | Empty_population -> "no test cases"
  | Injected s -> "injected fault: " ^ s
  | Instance_crash { exn_name; _ } -> "instance crash: " ^ exn_name
  | Worker_lost s -> "worker lost: " ^ s
  | Protocol s -> "protocol error: " ^ s

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* The simulator and leakage model report faults as strings ("pipeline
   deadlock", "cycle limit exceeded", "control flow escaped code region at
   index 12", ...); map them onto the taxonomy by content. *)
let of_run_fault s =
  if contains s "deadlock" || contains s "cycle limit" || contains s "step limit"
  then Fuel_exhausted s
  else if contains s "decode" || contains s "unknown instruction" then Decode_error s
  else if contains s "diverge" then Sim_divergence s
  else Emu_fault s

exception Injected_crash of string

let of_exn = function
  | Injected_crash s -> Injected s
  | Invalid_argument s when contains s "Exec" -> Decode_error s
  | exn -> Instance_crash (exn_info exn)

(* ------------------------------------------------------------------ *)
(* Per-class counters                                                  *)
(* ------------------------------------------------------------------ *)

type cls =
  | C_sim_divergence
  | C_emu_fault
  | C_decode_error
  | C_fuel_exhausted
  | C_deadline_exceeded
  | C_empty_population
  | C_injected
  | C_instance_crash
  | C_worker_lost
  | C_protocol

let class_of = function
  | Sim_divergence _ -> C_sim_divergence
  | Emu_fault _ -> C_emu_fault
  | Decode_error _ -> C_decode_error
  | Fuel_exhausted _ -> C_fuel_exhausted
  | Deadline_exceeded _ -> C_deadline_exceeded
  | Empty_population -> C_empty_population
  | Injected _ -> C_injected
  | Instance_crash _ -> C_instance_crash
  | Worker_lost _ -> C_worker_lost
  | Protocol _ -> C_protocol

let all_classes =
  [
    C_sim_divergence;
    C_emu_fault;
    C_decode_error;
    C_fuel_exhausted;
    C_deadline_exceeded;
    C_empty_population;
    C_injected;
    C_instance_crash;
    C_worker_lost;
    C_protocol;
  ]

let class_name = function
  | C_sim_divergence -> "sim-divergence"
  | C_emu_fault -> "emu-fault"
  | C_decode_error -> "decode-error"
  | C_fuel_exhausted -> "fuel-exhausted"
  | C_deadline_exceeded -> "deadline-exceeded"
  | C_empty_population -> "empty-population"
  | C_injected -> "injected"
  | C_instance_crash -> "instance-crash"
  | C_worker_lost -> "worker-lost"
  | C_protocol -> "protocol"

let class_of_name s = List.find_opt (fun c -> class_name c = s) all_classes

module Counters = struct
  type fault = t
  type t = (cls, int ref) Hashtbl.t

  let create () : t =
    let tbl = Hashtbl.create 8 in
    List.iter (fun c -> Hashtbl.add tbl c (ref 0)) all_classes;
    tbl

  let cell (t : t) c = Hashtbl.find t c

  let record_class t ?(n = 1) c =
    let r = cell t c in
    r := !r + n

  let record t fault = record_class t (class_of fault)
  let get t c = !(cell t c)
  let total t = List.fold_left (fun acc c -> acc + get t c) 0 all_classes

  let to_list t =
    List.filter_map
      (fun c -> match get t c with 0 -> None | n -> Some (c, n))
      all_classes

  let add_list t l = List.iter (fun (c, n) -> record_class t ~n c) l
  let merge dst src = add_list dst (to_list src)

  let pp fmt t =
    match to_list t with
    | [] -> Format.fprintf fmt "no faults"
    | l ->
        Format.pp_print_list
          ~pp_sep:(fun f () -> Format.fprintf f ", ")
          (fun f (c, n) -> Format.fprintf f "%s: %d" (class_name c) n)
          fmt l
end

(* ------------------------------------------------------------------ *)
(* Chaos injection                                                     *)
(* ------------------------------------------------------------------ *)

type injector = {
  p_crash : float;
  p_timeout : float;
  p_sim_fault : float;
  p_kill_worker : float;
  p_drop_message : float;
  p_delay_heartbeat : float;
  chaos_seed : int;
}

let injector ?(p_crash = 0.) ?(p_timeout = 0.) ?(p_sim_fault = 0.)
    ?(p_kill_worker = 0.) ?(p_drop_message = 0.) ?(p_delay_heartbeat = 0.)
    ~seed () =
  {
    p_crash;
    p_timeout;
    p_sim_fault;
    p_kill_worker;
    p_drop_message;
    p_delay_heartbeat;
    chaos_seed = seed;
  }

module Rng = Amulet_corpus.Rng

type chaos = { inj : injector; rng : Rng.t; service_rng : Rng.t }

let arm inj =
  (* the service modes draw from a separately-seeded stream so arming
     worker-level chaos never perturbs the in-process draw sequence *)
  {
    inj;
    rng = Rng.create ~seed:inj.chaos_seed;
    service_rng = Rng.create ~seed:(inj.chaos_seed lxor 0x5eed1ce);
  }

let draw rng = float_of_int (Rng.int rng 1_000_000) /. 1_000_000.

(* One uniform draw decides: the probabilities partition [0, 1). *)
let sample t =
  let u = draw t.rng in
  if u < t.inj.p_crash then `Crash
  else if u < t.inj.p_crash +. t.inj.p_timeout then `Timeout
  else if u < t.inj.p_crash +. t.inj.p_timeout +. t.inj.p_sim_fault then `Sim_fault
  else `None

let sample_worker t =
  let u = draw t.service_rng in
  if u < t.inj.p_kill_worker then `Kill_worker
  else if u < t.inj.p_kill_worker +. t.inj.p_drop_message then `Drop_message
  else if
    u < t.inj.p_kill_worker +. t.inj.p_drop_message +. t.inj.p_delay_heartbeat
  then `Delay_heartbeat
  else `None
