module Schedule = Mvcc_core.Schedule
module Certifier = Mvcc_online.Certifier
module Checker = Mvcc_provenance.Checker
module Report = Mvcc_classes.Report
module Ctx = Mvcc_analysis.Ctx
module Gen = Mvcc_workload.Schedule_gen

type shape = {
  inputs : int;
  cert_txns : int;
  cert_entities : int;
  cert_theta : float;
  cert_read_fraction : float;
  classify_count : int;
  classify_entities : int;
}

let steps_per_txn = 8
let classify_txns = 7
let classify_min_steps = 2
let classify_max_steps = 4

type input = { cert : Mvcc_core.Step.t array; census : Schedule.t list }

let generate s ~seed =
  let rng = Random.State.make [| seed; 0xa0d17 |] in
  let cert =
    Gen.schedule
      {
        Gen.default with
        n_txns = s.cert_txns;
        n_entities = s.cert_entities;
        min_steps = steps_per_txn;
        max_steps = steps_per_txn;
        read_fraction = s.cert_read_fraction;
        zipf_theta = s.cert_theta;
      }
      rng
  in
  let census =
    Gen.sample
      {
        Gen.default with
        n_txns = classify_txns;
        n_entities = s.classify_entities;
        min_steps = classify_min_steps;
        max_steps = classify_max_steps;
      }
      rng s.classify_count
  in
  { cert = Schedule.steps cert; census }

type cert = {
  mode : Certifier.mode;
  steps : int;
  wall_s : float;
  feed_s : float array;
  cert_failed : int;
}

let mode_name = function Certifier.Conflict -> "csr" | Mv_conflict -> "mvcsr"

let refuted sched w = Checker.check sched w = Checker.Refuted

let certify ?probe steps mode =
  let name = mode_name mode in
  let obs =
    match probe with
    | None -> None
    | Some (p : Probe.t) -> Some (Probe.sink (Probe.registry p.cert name))
  in
  let c = Certifier.create ?obs mode in
  let span_name = "certifier.feed." ^ name in
  let n = Array.length steps in
  let feed_s = Array.make n 0. and accepted = ref [] in
  let t0 = Clock.now () in
  for i = 0 to n - 2 do
    let st = steps.(i) in
    let a = Clock.now () in
    let v = Probe.span ~keep:true probe span_name (fun () -> Certifier.feed c st) in
    feed_s.(i) <- Clock.now () -. a;
    if v = Certifier.Accepted then accepted := st :: !accepted
  done;
  let last = steps.(n - 1) in
  let a = Clock.now () in
  let { Certifier.witness; _ } =
    Probe.span ~keep:true probe span_name (fun () -> Certifier.feed_explained c last)
  in
  feed_s.(n - 1) <- Clock.now () -. a;
  let wall_s = Clock.now () -. t0 in
  (* the witness speaks about the accepted prefix plus the offered step,
     whether it was accepted or refused *)
  let against = Schedule.of_steps (List.rev (last :: !accepted)) in
  let bad =
    Probe.span probe "checker.certifier" (fun () -> refuted against witness)
  in
  { mode; steps = n; wall_s; feed_s; cert_failed = Bool.to_int bad }

type census = { schedules : int; report_s : float; census_failed : int }

let membership (r : Report.t) =
  {
    Mvcc_classes.Topography.serial = r.serial;
    csr = r.csr.in_class;
    vsr = r.vsr.in_class;
    mvcsr = r.mvcsr.in_class;
    mvsr = r.mvsr.in_class;
    dmvsr = r.dmvsr.in_class;
  }

let schedule_failed ?(recheck = ref max_int) (r : Report.t) (sat_vsr, w) =
  (not (Mvcc_classes.Topography.consistent (membership r)))
  || sat_vsr <> r.vsr.in_class
  || (Mvcc_provenance.Witness.accepts w || !recheck > 0)
     && begin
          if not (Mvcc_provenance.Witness.accepts w) then decr recheck;
          refuted r.schedule w
        end

let class_spans =
  List.map
    (fun name ->
      ( "classes." ^ String.lowercase_ascii name,
        Option.get (Mvcc_classes.Deciders.find name) ))
    [ "CSR"; "VSR"; "FSR"; "MVCSR"; "MVSR"; "DMVSR" ]

(* Traced extras: every class decided on a fresh context, the
   polygraph's search effort, and the DPLL effort on the polygraph's SAT
   encoding. *)
let layer_extras p s ctx =
  List.iter
    (fun (name, d) ->
      Probe.span (Some p) name (fun () ->
          ignore (Mvcc_analysis.Decider.decide d (Ctx.make s))))
    class_spans;
  let _, st = Ctx.polygraph_solution ctx in
  Probe.tally p "polygraph.branches"
    (float_of_int st.Mvcc_polygraph.Acyclicity.branches);
  let _, ds =
    Mvcc_sat.Dpll.solve_stats
      (Mvcc_polygraph.Sat_encoding.encode (Ctx.polygraph ctx))
  in
  Probe.tally p "sat.decisions" (float_of_int ds.Mvcc_sat.Dpll.decisions);
  Probe.tally p "sat.propagations" (float_of_int ds.Mvcc_sat.Dpll.propagations);
  List.iter
    (fun (_, n) -> Probe.tally p "analysis.ctx_builds" (float_of_int n))
    (Ctx.build_counts ctx)

let classify ?probe ?recheck census =
  let report_s = ref 0. and failed = ref 0 in
  List.iter
    (fun s ->
      let r, ctx, dt =
        match probe with
        | None ->
            let r, dt = Clock.time (fun () -> Report.make s) in
            (r, None, dt)
        | Some _ ->
            let ctx = Ctx.make s in
            let r, dt =
              Clock.time (fun () ->
                  Probe.span probe "classes.report" (fun () -> Report.of_ctx ctx))
            in
            (r, Some ctx, dt)
      in
      report_s := !report_s +. dt;
      let sat = Probe.span probe "sat.vsr" (fun () -> Mvcc_classes.Vsr.decide_sat s) in
      (match (probe, ctx) with
      | Some p, Some ctx -> layer_extras p s ctx
      | _ -> ());
      if Probe.span probe "checker.classes" (fun () -> schedule_failed ?recheck r sat)
      then incr failed)
    census;
  { schedules = List.length census; report_s = !report_s; census_failed = !failed }
