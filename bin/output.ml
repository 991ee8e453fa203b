(* Shared conventions for every amulet subcommand.

   Exit codes are uniform across the CLI:
     0  clean — the command did its job and found no violation
     1  violation(s) found / reproduced
     2  usage error or internal fault (bad option, unknown name,
        unreadable or malformed file, crashed shard, exception, a saved
        violation that no longer reproduces)

   [guarded] runs a subcommand body under that fault convention. *)

let exit_clean = 0
let exit_violation = 1
let exit_fault = 2

(* The EXIT STATUS section of every man page. *)
let exits =
  Cmdliner.Cmd.Exit.
    [
      info exit_clean ~doc:"the command did its job and found no violation.";
      info exit_violation ~doc:"violation(s) found or reproduced.";
      info exit_fault
        ~doc:
          "usage error (bad option, unknown name, unreadable file) or internal \
           fault (crashed shard, exception, a saved violation that no longer \
           reproduces).";
    ]

let emit json = print_endline (Amulet_obs.Json.to_string json)

let write_file path contents =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc contents;
      Out_channel.output_char oc '\n')

(* Run a subcommand body under the shared fault convention: any escaping
   exception is a CLI-level fault (exit 2), reported on stderr — never an
   OCaml backtrace dumped at the user. *)
let guarded f =
  try f () with
  | Amulet.Violation_io.Format_error msg ->
      Format.eprintf "amulet: malformed file: %s@." msg;
      exit_fault
  | Failure msg | Sys_error msg | Invalid_argument msg ->
      Format.eprintf "amulet: %s@." msg;
      exit_fault
  | exn ->
      Format.eprintf "amulet: %s@." (Printexc.to_string exn);
      exit_fault
