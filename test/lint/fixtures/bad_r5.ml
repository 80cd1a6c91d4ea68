(* Lint fixture: R5 ambient trace/fault calls lexically inside
   closures handed to Domain.spawn / Dpool.submit / Dpool.run.
   Per-domain setup (install/activate) and handle-threading calls
   through Trace.Recorder must NOT be flagged.  Expected findings:
   Trace.emit, Injector.fire, Trace.enter_span, Trace.exit_span. *)

let bad_direct () =
  Domain.spawn (fun () ->
      Trace.emit ~cat:Lock ~subsystem:"fixture" "boom";
      Injector.fire point)

let bad_pool pool =
  Dpool.submit pool (fun () ->
      Sentry_obs.Trace.enter_span ~cat:Lock ~subsystem:"fixture" "cycle")

let bad_nested () =
  Domain.spawn (fun () -> Dpool.run ~domains:1 [ (fun () -> Trace.exit_span ()) ])

let ok_handle pool r =
  Dpool.submit pool (fun () -> Trace.Recorder.emit r ~cat:Lock ~subsystem:"fixture" "fine")

let ok_setup () =
  Domain.spawn (fun () ->
      Trace.install (Trace.Recorder.create ());
      Trace.uninstall ())
