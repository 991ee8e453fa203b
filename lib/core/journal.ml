(** Crash-safe campaign journaling: atomic checkpoints of campaign progress
    with embedded {!Violation_io} blocks, replayed by [fuzz --resume]. *)

exception Format_error = Violation_io.Format_error

type t = {
  seed : int;
  n_programs : int;
  defense_name : string;
  contract_name : string;
  programs_run : int;
  discarded : int;
  test_cases : int;
  fault_counts : (Fault.cls * int) list;
  detection_times : float list;
  corpus : string option;
      (** serialised guided-fuzzing corpus checkpoint, if any *)
  violations : Violation_io.stored list;
}

let violation_marker = "--- violation ---"

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

let output out (j : t) =
  let faults =
    List.map (fun (c, n) -> Printf.sprintf "%s:%d" (Fault.class_name c) n) j.fault_counts
  in
  let campaign =
    [
      ("seed", string_of_int j.seed);
      ("n_programs", string_of_int j.n_programs);
      ("defense", j.defense_name);
      ("contract", j.contract_name);
      ("programs_run", string_of_int j.programs_run);
      ("discarded", string_of_int j.discarded);
      ("test_cases", string_of_int j.test_cases);
      ("faults", String.concat "," faults);
      ( "detection_times",
        String.concat "," (List.map (Printf.sprintf "%.6f") j.detection_times) );
    ]
    (* the corpus checkpoint is multi-line text: store it OCaml-escaped on
       a single key=value line so pre-corpus readers (tolerant of unknown
       keys) and this parser both stay line-oriented *)
    @ (match j.corpus with None -> [] | Some c -> [ ("corpus", String.escaped c) ])
    (* integrity: a truncation that happens to land on a violation-block
       boundary would otherwise parse cleanly with silently fewer
       violations — the count makes any such tear detectable *)
    @ [ ("violations", string_of_int (List.length j.violations)) ]
  in
  output_string out
    (Violation_io.render Violation_io.Journal
       [ ("campaign", Violation_io.key_value_lines campaign) ]);
  List.iter
    (fun s ->
      Printf.fprintf out "%s\n" violation_marker;
      Violation_io.output out s)
    j.violations

(** Atomic + durable checkpoint: write [path].tmp in full, flush and fsync
    the temp fd, rename over [path], then fsync the containing directory —
    a kill or power loss at any instant leaves the previous or the new
    checkpoint intact, never a torn file.  Without the fsyncs the rename
    can land on disk before the data, "committing" a truncated file. *)
let save (j : t) path =
  let tmp = path ^ ".tmp" in
  let out = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out out)
    (fun () ->
      output out j;
      flush out;
      Unix.fsync (Unix.descr_of_out_channel out));
  Sys.rename tmp path;
  (* the rename itself must be durable: fsync the directory entry.  Best
     effort — some filesystems refuse fsync on a directory fd. *)
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | dirfd ->
      Fun.protect
        ~finally:(fun () -> Unix.close dirfd)
        (fun () -> try Unix.fsync dirfd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

(* A comma-separated list; [decode] rejects an item with [None]. *)
let parse_list what decode s =
  if String.trim s = "" then []
  else
    List.map
      (fun item ->
        match decode item with
        | Some x -> x
        | None -> raise (Format_error (Printf.sprintf "bad %s: %s" what item)))
      (String.split_on_char ',' s)

let fault_count item =
  match String.split_on_char ':' item with
  | [ name; count ] -> (
      match Fault.class_of_name name, int_of_string_opt count with
      | Some c, Some n -> Some (c, n)
      | _ -> None)
  | _ -> None

let load path : t =
  let lines = In_channel.with_open_text path In_channel.input_lines in
  (* split into the campaign header and one chunk per embedded violation *)
  let chunks =
    List.fold_left
      (fun acc line ->
        if line = violation_marker then [] :: acc
        else match acc with cur :: rest -> (line :: cur) :: rest | [] -> [ [ line ] ])
      [ [] ] lines
    |> List.rev_map List.rev
  in
  let header, violation_chunks =
    match chunks with h :: v -> h, v | [] -> raise (Format_error "empty journal")
  in
  let meta =
    Violation_io.(key_values (section (parse_doc Journal header) "campaign"))
  in
  let find = Violation_io.require meta in
  let int_of k =
    match int_of_string_opt (find k) with
    | Some n -> n
    | None -> raise (Format_error ("bad integer for " ^ k))
  in
  let violations =
    List.map
      (fun chunk ->
        try Violation_io.parse chunk
        with Format_error e -> raise (Format_error ("embedded violation: " ^ e)))
      (List.filter (fun c -> c <> []) violation_chunks)
  in
  (match Hashtbl.find_opt meta "violations" with
  | Some n when int_of_string_opt n <> Some (List.length violations) ->
      raise
        (Format_error
           (Printf.sprintf "journal truncated: header says %s violations, found %d"
              n (List.length violations)))
  | _ -> ());
  {
    seed = int_of "seed";
    n_programs = int_of "n_programs";
    defense_name = find "defense";
    contract_name = find "contract";
    programs_run = int_of "programs_run";
    discarded = int_of "discarded";
    test_cases = int_of "test_cases";
    fault_counts = parse_list "fault count" fault_count (find "faults");
    detection_times =
      parse_list "detection time" float_of_string_opt (find "detection_times");
    corpus =
      (match Hashtbl.find_opt meta "corpus" with
      | None -> None
      | Some s -> (
          try Some (Scanf.unescaped s)
          with Scanf.Scan_failure _ | Failure _ ->
            raise (Format_error "bad corpus escape")));
    violations;
  }

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)
(* ------------------------------------------------------------------ *)

type recovery =
  | Resumed of t
  | Quarantined of { corrupt_path : string; error : string }
  | Fresh

let recover path =
  if not (Sys.file_exists path) then Fresh
  else
    match load path with
    | j -> Resumed j
    | exception Format_error e ->
        (* a torn checkpoint (crash between write and fsync on a pre-fsync
           journal, disk corruption, truncation) must not kill the campaign:
           move it aside for triage and start over *)
        let corrupt_path = path ^ ".corrupt" in
        (try Sys.rename path corrupt_path
         with Sys_error _ -> ( try Sys.remove path with Sys_error _ -> ()));
        Quarantined { corrupt_path; error = e }
