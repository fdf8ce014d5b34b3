(* em_repro serve: a long-running online multiselection session.

   The protocol engine (parsing, validation, typed fault replies, retries,
   budgets, checkpoint/state-file round trips, telemetry frames, flight
   recorder, drift watchdog) lives in {!Core.Serve}; this file is the
   process shell around it: flag parsing, signal-driven graceful shutdown,
   and the stdin/socket transports.

   Crash survivability: with [--state PATH] every checkpoint (automatic via
   [--checkpoint-every K], explicit via the [checkpoint] command, and the
   final one on shutdown) is mirrored to a state file, and a later
   [em_repro serve --state PATH --restore] resumes the session — same leaf
   partition, same counters, same subsequent query costs.  SIGINT/SIGTERM
   drain the batch in flight, checkpoint, emit the final summary and unlink
   the socket.

   Observability: [--telemetry FILE] (or [--telemetry-socket PATH]) streams
   one-line JSON frames on a [--telemetry-every]/[--telemetry-seconds]
   cadence — tail them with `em_repro top`; [--flight-dir DIR] leaves a
   post-mortem artifact on every typed error reply and at shutdown;
   [--strict-bounds] exits 4 when the online drift watchdog tripped.

   Every emitted number is a simulated cost except inside "wall":{...}
   objects, so replies (with those normalised) are byte-deterministic for a
   fixed geometry/workload/seed — `make serve-smoke` and `make
   telemetry-smoke` diff them against golden transcripts. *)

open Cmdliner

let n_t =
  Arg.(required & opt (some int) None & info [ "n" ] ~docv:"N" ~doc:"Input size.")

let socket_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Serve on a Unix domain socket at PATH instead of stdin/stdout \
           (one client at a time; the session persists across connections).")

let state_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "state" ] ~docv:"PATH"
        ~doc:
          "Mirror every session checkpoint to a state file at PATH (written \
           atomically), so a later $(b,--restore) survives this process's \
           death.  By itself enables explicit checkpointing (the \
           $(b,checkpoint) command and shutdown).")

let restore_t =
  Arg.(
    value & flag
    & info [ "restore" ]
        ~doc:
          "Resume the session from $(b,--state)'s file if it exists (fresh \
           start otherwise).  The file must match this machine geometry, \
           workload and seed.")

let checkpoint_every_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "checkpoint-every" ] ~docv:"K"
        ~doc:
          "Checkpoint automatically: mid-refinement once K splits accumulate \
           and at the end of every query that refined the tree.")

let io_budget_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "io-budget" ] ~docv:"IOS"
        ~doc:
          "Abort any single query that spends more than IOS metered I/Os \
           with a typed $(b,budget_exceeded) reply.  Refinement already paid \
           for is kept (monotone), so later queries still benefit.")

(* ---- telemetry / flight / drift flags ---- *)

let telemetry_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "telemetry" ] ~docv:"FILE"
        ~doc:
          "Append one-line JSON telemetry frames to FILE (truncated at \
           start).  Simulated-cost fields are byte-deterministic; \
           wall-clock fields are confined to each frame's \
           $(b,\"wall\":{...}) object.  Render live with $(b,em_repro top).")

let telemetry_socket_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "telemetry-socket" ] ~docv:"PATH"
        ~doc:
          "Stream telemetry frames to a Unix domain socket at PATH (a \
           listener must already be accepting there).  Mutually exclusive \
           with $(b,--telemetry).")

let telemetry_every_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "telemetry-every" ] ~docv:"N"
        ~doc:
          "Emit a telemetry frame every N admitted queries (default 1 when \
           neither cadence flag is given).")

let telemetry_seconds_t =
  Arg.(
    value
    & opt (some float) None
    & info [ "telemetry-seconds" ] ~docv:"S"
        ~doc:"Also emit a telemetry frame whenever S seconds have passed.")

let flight_dir_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight-dir" ] ~docv:"DIR"
        ~doc:
          "Dump a flight-recorder post-mortem ($(b,postmortem-NNN.json): \
           last K query records joined with their trace events and a \
           metrics snapshot) into DIR on every typed error reply, budget \
           abort, crash, and at shutdown.")

let trace_ring_t =
  Arg.(
    value
    & opt int Em.Flight_recorder.default_trace_ring
    & info [ "trace-ring" ] ~docv:"EVENTS"
        ~doc:
          "Depth of the I/O trace ring that $(b,--flight-dir) post-mortems \
           slice their trace events from.  No ring is kept without \
           $(b,--flight-dir).")

let flight_capacity_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "flight-capacity" ] ~docv:"K"
        ~doc:"Query records the flight recorder retains (default 64).")

let strict_bounds_t =
  Arg.(
    value & flag
    & info [ "strict-bounds" ]
        ~doc:
          "Exit 4 at shutdown if the online drift watchdog tripped — i.e. \
           the session's running measured/predicted amortized-cost ratio \
           ever exceeded the ceiling.")

let drift_ceiling_t =
  Arg.(
    value
    & opt (some float) None
    & info [ "drift-ceiling" ] ~docv:"R"
        ~doc:
          "Running-ratio ceiling for the drift watchdog (default 6.0, \
           calibrated against the offline online_amortized gate).")

(* ---- transports ---- *)

let serve_socket ~should_stop srv path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close sock;
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 1;
      Printf.eprintf "serving on %s\n%!" path;
      let rec accept_loop () =
        if should_stop () then ()
        else
          match Unix.accept sock with
          | exception Unix.Unix_error (Unix.EINTR, _, _) ->
              (* A signal interrupted the blocking accept: either the
                 shutdown flag is now set (checked on re-entry) or it was
                 something harmless — retry either way. *)
              accept_loop ()
          | client, _ ->
              let ic = Unix.in_channel_of_descr client in
              let oc = Unix.out_channel_of_descr client in
              let continue =
                Fun.protect
                  ~finally:(fun () -> try Unix.close client with Unix.Unix_error _ -> ())
                  (fun () ->
                    (* A client vanishing mid-line (reset on read, EPIPE on
                       reply) ends that client, not the server. *)
                    try Core.Serve.serve_channels ~should_stop srv ic oc
                    with Sys_error _ | Unix.Unix_error _ -> true)
              in
              if continue then accept_loop ()
      in
      accept_loop ())

let run c n socket state restore checkpoint_every io_budget fault_p fault_seed fault_kinds
    max_retries telemetry_file telemetry_socket telemetry_every telemetry_seconds flight_dir
    flight_capacity trace_ring strict_bounds drift_ceiling =
  Cli_args.setup_logs c;
  let ctx = Cli_args.make_ctx c in
  Cli_args.arm_faults ctx ~max_retries ~fault_p ~fault_seed ~fault_kinds;
  let v = Cli_args.workload_vec c ctx ~n in
  let meta =
    {
      Core.Serve.m_n = n;
      m_mem = c.Cli_args.mem;
      m_block = c.Cli_args.block;
      m_disks = Em.Ctx.disks ctx;
      m_workload = Core.Workload.kind_name c.Cli_args.workload;
      m_seed = c.Cli_args.seed;
    }
  in
  let telemetry =
    match (telemetry_file, telemetry_socket) with
    | Some _, Some _ ->
        Printf.eprintf "serve: --telemetry and --telemetry-socket are mutually exclusive\n%!";
        exit 1
    | None, None -> None
    | file, sock -> (
        let sink =
          match (file, sock) with
          | Some path, _ -> Em.Telemetry.file_sink path
          | _, Some path -> (
              try Em.Telemetry.socket_sink path
              with Failure msg ->
                Printf.eprintf "serve: %s\n%!" msg;
                exit 1)
          | None, None -> assert false
        in
        try
          Some
            (Em.Telemetry.create ?every_queries:telemetry_every
               ?every_seconds:telemetry_seconds sink)
        with Invalid_argument msg ->
          Printf.eprintf "serve: %s\n%!" msg;
          exit 1)
  in
  let srv =
    try
      Core.Serve.create ?checkpoint_every ?io_budget ~max_retries ?state_path:state ~restore
        ?telemetry ?flight_capacity ?flight_dir ~trace_ring ?drift_ceiling ~meta ctx v
    with Failure msg | Invalid_argument msg ->
      Printf.eprintf "%s\n%!" msg;
      exit 1
  in
  (* Graceful shutdown: the handlers only set a flag; the serve loop drains
     the batch in flight, then checks it between lines (interrupted blocking
     reads surface as EINTR/Sys_error and re-check). *)
  let stop_reason = ref None in
  let on_signal name = Sys.Signal_handle (fun _ -> stop_reason := Some name) in
  Sys.set_signal Sys.sigint (on_signal "sigint");
  Sys.set_signal Sys.sigterm (on_signal "sigterm");
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let should_stop () = !stop_reason <> None in
  let greeting = Core.Serve.greeting_json srv in
  (match socket with
  | None ->
      print_endline greeting;
      flush Stdlib.stdout;
      ignore (Core.Serve.serve_channels ~should_stop srv Stdlib.stdin Stdlib.stdout);
      Core.Serve.shutdown_checkpoint srv;
      print_endline (Core.Serve.finalize ?shutdown:!stop_reason srv)
  | Some path ->
      Printf.eprintf "%s\n%!" greeting;
      serve_socket ~should_stop srv path;
      Core.Serve.shutdown_checkpoint srv;
      Printf.eprintf "%s\n%!" (Core.Serve.finalize ?shutdown:!stop_reason srv));
  let tripped = Core.Drift.tripped (Core.Serve.drift srv) in
  Core.Serve.close srv;
  Em.Ctx.close ctx;
  if strict_bounds && tripped then begin
    Printf.eprintf "serve: drift watchdog tripped (--strict-bounds)\n%!";
    exit 4
  end

let cmd =
  let doc =
    "Serve an online multiselection session: newline-delimited query batches \
     in (stdin or a Unix socket), JSON replies out, with per-query request \
     spans (id + cost object), per-session metrics and profile spans.  \
     Checkpoints the session state through the simulated checkpoint region \
     (and a $(b,--state) file) so a killed server resumes with \
     $(b,--restore); typed device faults under an armed $(b,--fault-p) plan \
     become structured error replies after bounded retries.  Live telemetry \
     streams via $(b,--telemetry)/$(b,--telemetry-socket), post-mortems via \
     $(b,--flight-dir), and the online drift watchdog gates \
     $(b,--strict-bounds)."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ Cli_args.common_t $ n_t $ socket_t $ state_t $ restore_t
      $ checkpoint_every_t $ io_budget_t
      $ Cli_args.fault_p_t ~default:0. ()
      $ Cli_args.fault_seed_t $ Cli_args.fault_kinds_t $ Cli_args.max_retries_t
      $ telemetry_t $ telemetry_socket_t $ telemetry_every_t $ telemetry_seconds_t
      $ flight_dir_t $ flight_capacity_t $ trace_ring_t $ strict_bounds_t $ drift_ceiling_t)
