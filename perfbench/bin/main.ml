(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload (oltp-write, oltp-read or audit) for about S
   seconds and ends its standard output with one JSON line:
   {"correct", "attempted", "failed", "metrics"} — the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1 (the
   traced run also writes its bench-side spans to perfbench.spans).
   Readable lines before it describe the workload and repeat every
   metric with its unit. Exits 2 on a usage error. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload (oltp-write|oltp-read|audit) --seed N \
     --seconds S --trace (0|1)";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None in
  let rec parse = function
    | "--workload" :: v :: rest ->
        workload := Perfbench.Workload.find v;
        if !workload = None then usage ();
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := Float.of_string_opt v;
        parse rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
        trace := Some (v = "1");
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some trace when seconds > 0. ->
      List.iter print_endline (Perfbench.Workload.describe w);
      let r =
        Perfbench.Bench.run ~log:prerr_endline w ~seed ~seconds ~trace
      in
      List.iter print_endline r.notes;
      if trace then List.iter (fun m -> print_endline (Perfbench.Out.human m)) r.metrics;
      Option.iter
        (fun tr -> Perfbench.Tracer.write_jsonl tr "perfbench.spans")
        r.tracer;
      print_endline
        (Perfbench.Out.result_json ~correct:(r.failed = 0)
           ~attempted:r.attempted ~failed:r.failed r.metrics)
  | _ -> usage ()
