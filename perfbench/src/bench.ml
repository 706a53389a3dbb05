module E = Mvcc_engine.Engine
module Metrics = Mvcc_obs.Metrics
module Certifier = Mvcc_online.Certifier

type inputs = { oltp : Oltp.input array; audit : Audit.input array }

let modes = [ Certifier.Conflict; Certifier.Mv_conflict ]
let pnames = List.map E.policy_name Oltp.policies

let rec take k = function
  | x :: xs when k > 0 -> x :: take (k - 1) xs
  | _ -> []

let setup (w : Workload.t) ~seed =
  let inputs =
    {
      oltp =
        Array.init Workload.batches (fun i ->
            Oltp.generate w.oltp ~seed:(Hashtbl.hash (seed, i)));
      audit =
        Array.init w.audit.inputs (fun i ->
            Audit.generate w.audit ~seed:(Hashtbl.hash (seed, i)));
    }
  in
  let first = inputs.oltp.(0) in
  let half = List.length first.programs / 2 in
  ignore
    (Oltp.leg w.oltp
       { first with programs = take (max 1 half) first.programs }
       E.Mvto);
  let cert = inputs.audit.(0).cert in
  ignore
    (Audit.certify (Array.sub cert 0 (min (Array.length cert) 1_000))
       Certifier.Conflict);
  ignore (Audit.classify (take 5 inputs.audit.(0).census));
  inputs

type round = {
  legs : Oltp.leg list;
  certs : Audit.cert list;
  census : Audit.census;
  wall_s : float;
}

(* Each timed part starts at the start of a major GC cycle, so a
   part's collection work does not depend on where the part before it
   left the cycle. *)
let settled f x =
  Gc.major ();
  f x

let round ?probe ?recheck (w : Workload.t) inputs ~index =
  let t0 = Clock.now () in
  let batch = inputs.oltp.(index mod Workload.batches) in
  let legs = List.map (settled (Oltp.leg ?probe w.oltp batch)) Oltp.policies in
  let audit = inputs.audit.(index mod Array.length inputs.audit) in
  let certs = List.map (settled (Audit.certify ?probe audit.cert)) modes in
  let census = settled (Audit.classify ?probe ?recheck) audit.census in
  { legs; certs; census; wall_s = Clock.now () -. t0 }

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs
let sumi f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

let accounting r =
  ( sumi (fun (l : Oltp.leg) -> l.submitted) r.legs
    + sumi (fun (c : Audit.cert) -> c.steps) r.certs
    + r.census.schedules,
    sumi (fun (l : Oltp.leg) -> l.failed) r.legs
    + sumi (fun (c : Audit.cert) -> c.cert_failed) r.certs
    + r.census.census_failed )

type result = {
  metrics : Out.metric list;
  notes : string list;
  attempted : int;
  failed : int;
  tracer : Tracer.t option;
}

let end_to_end_names =
  List.map (fun p -> ("txn_per_s." ^ p, "txn/s")) pnames
  @ [
      ("wal_bytes_per_commit", "B/txn");
      ("recover_s", "s");
      ("replica_txn_per_s", "txn/s");
      ("cert_steps_per_s.csr", "step/s");
      ("cert_steps_per_s.mvcsr", "step/s");
      ("cert_step_p99_us.csr", "us");
      ("classify_per_s", "sched/s");
      ("setup_s", "s");
    ]

let per_policy prefix unit_ = List.map (fun p -> (prefix ^ p, unit_)) pnames

let abort_reasons =
  [ "deadlock"; "ts-order"; "write-invalidated"; "first-committer";
    "certification"; "cascade" ]

let per_layer_names =
  per_policy "engine.self_s." "s"
  @ per_policy "engine.ticks_per_commit." "tick/txn"
  @ per_policy "engine.attempts_per_commit." "attempt/txn"
  @ per_policy "engine.blocked_ticks." "tick"
  @ List.map (fun r -> ("engine.abort." ^ r, "count")) abort_reasons
  @ [
      ("engine.cert.feed_s.p99", "s");
      ("engine.cert.reorder-moves", "count");
      ("engine.commit-waits", "count");
      ("engine.ro.offloop", "count");
      ("engine.ro.deferred", "count");
      ("engine.stage.exec_s", "s");
      ("engine.stage.waves.p50", "wave");
      ("engine.stage.waves.p95", "wave");
      ("engine.stage.batch-txns.p50", "txn");
      ("engine.stage.batch-target", "txn");
    ]
  @ per_policy "store.max_version_chain." "version"
  @ per_policy "store.gc_pruned_per_commit." "version/txn"
  @ per_policy "wal.listener_s." "s"
  @ per_policy "wal.records_per_commit." "record/txn"
  @ per_policy "wal.forces." "count"
  @ [
      ("engine.ack-lag-ticks.p99", "tick");
      ("snapshot.capture_s", "s");
      ("snapshot.bytes", "B");
      ("recovery.read_s", "s");
      ("recovery.analysis_s", "s");
      ("recovery.assemble_s", "s");
      ("recovery.tail_s", "s");
      ("follower.catch_up_s.p50", "s");
      ("follower.catch_up_s.p99", "s");
      ("follower.certify_s", "s");
      ("certifier.feed_us.p50.csr", "us");
      ("certifier.feed_us.p50.mvcsr", "us");
      ("certifier.feed_us.p99.mvcsr", "us");
      ("certifier.arcs_per_step", "arc/step");
      ("certifier.reorder_moves_per_step", "move/step");
      ("certifier.rollbacks", "count");
    ]
  @ per_policy "checker.engine_s." "s"
  @ [ ("checker.certifier_s", "s"); ("checker.classes_s", "s") ]
  @ List.map
      (fun c -> ("classes." ^ c ^ "_s", "s"))
      [ "csr"; "vsr"; "fsr"; "mvcsr"; "mvsr"; "dmvsr" ]
  @ [
      ("analysis.ctx_builds", "count");
      ("polygraph.branches", "count");
      ("sat.vsr_s", "s");
      ("sat.decisions", "count");
      ("sat.propagations", "count");
      ("obs.overhead_pct", "%");
    ]

let div a b = if b = 0. then 0. else a /. b

let leg_of r policy =
  List.find (fun (l : Oltp.leg) -> l.policy = policy) r.legs

let cert_of r mode = List.find (fun (c : Audit.cert) -> c.mode = mode) r.certs

let feed_samples rounds mode =
  List.concat_map (fun r -> Array.to_list (cert_of r mode).feed_s) rounds

let tail_note name samples =
  match Stats.tail samples with
  | None -> Printf.sprintf "%s: %d samples, too few for a tail" name (List.length samples)
  | Some t ->
      Printf.sprintf "%s: %s = %.3f us over %d samples (%d beyond)" name
        (Stats.pct_name t.bp) (t.value *. 1e6) t.count t.beyond

(* Where an untraced round's time goes; "other" is the output checks
   (follower certification, SAT re-derivation, checker calls) and the
   GC settling before each part. *)
let round_shares rounds =
  let wall = sum (fun r -> r.wall_s) rounds in
  let legs f = sum (fun r -> sum f r.legs) rounds in
  let parts =
    [
      ("engine.run", legs (fun l -> l.Oltp.run_s));
      ("recovery", legs (fun l -> l.Oltp.recover_s));
      ("follower.feed", legs (fun l -> l.Oltp.catch_up_s));
      ("certifier", sum (fun r -> sum (fun (c : Audit.cert) -> c.wall_s) r.certs) rounds);
      ("report", sum (fun r -> r.census.report_s) rounds);
    ]
  in
  let other = wall -. sum snd parts in
  "round time: "
  ^ String.concat ", "
      (List.map
         (fun (name, t) -> Printf.sprintf "%s %.0f%%" name (100. *. div t wall))
         (parts @ [ ("other", other) ]))

(* A time or a throughput comes from its per-round values. Stolen CPU
   and other tenants' load only ever slow a round, so a run reports the
   rate that a quarter of its rounds reach (the upper quartile) and the
   time that a quarter of them beat (the lower quartile), which the
   slowed rounds fall behind rather than set. Log bytes per commit do
   not depend on the clock and pool every round. *)
let end_to_end rounds ~setup_s =
  let quartile bp f = Stats.percentile ~bp (List.map f rounds) in
  let per_s num den = quartile 7_500 (fun r -> div (num r) (den r)) in
  let tput policy =
    per_s
      (fun r -> float_of_int (leg_of r policy).commits)
      (fun r -> (leg_of r policy).run_s)
  in
  let csr_feeds = feed_samples rounds Certifier.Conflict in
  let values =
    List.map tput Oltp.policies
    @ [
        div
          (float_of_int
             (sumi (fun r -> sumi (fun (l : Oltp.leg) -> l.wal_bytes) r.legs) rounds))
          (float_of_int
             (sumi (fun r -> sumi (fun (l : Oltp.leg) -> l.commits) r.legs) rounds));
        quartile 2_500 (fun r -> sum (fun (l : Oltp.leg) -> l.recover_s) r.legs);
        per_s
          (fun r ->
            float_of_int (sumi (fun (l : Oltp.leg) -> l.replica_commits) r.legs))
          (fun r -> sum (fun (l : Oltp.leg) -> l.catch_up_s) r.legs);
      ]
    @ List.map
        (fun m ->
          per_s
            (fun r -> float_of_int (cert_of r m).steps)
            (fun r -> (cert_of r m).wall_s))
        modes
    @ [
        Stats.percentile ~bp:9_900 csr_feeds *. 1e6;
        per_s
          (fun r -> float_of_int r.census.schedules)
          (fun r -> r.census.report_s);
        setup_s;
      ]
  in
  let metrics =
    List.map2
      (fun (name, unit_) value -> { Out.name; unit_; value })
      end_to_end_names values
  in
  let notes =
    [
      tail_note "cert feed csr" csr_feeds;
      Printf.sprintf "cert_step_p99_us.csr: %d samples, %d beyond p99"
        (List.length csr_feeds)
        (Stats.beyond ~bp:9_900 (List.length csr_feeds));
      round_shares rounds;
    ]
  in
  (metrics, notes)

let counter m name = float_of_int (Metrics.counter m name)

let hist m name pick =
  match Metrics.summary m name with Some s -> pick s | None -> 0.

let per_layer (p : Probe.t) ~traced_rounds ~overhead_pct =
  let k = float_of_int (max 1 traced_rounds) in
  let tr = p.tr in
  let t name = Probe.tallied p name in
  let pp f = List.map f pnames in
  let samples_us name = List.map (fun s -> s *. 1e6) (Tracer.samples tr name) in
  let cert_counter c =
    sum (fun m -> counter (Probe.registry p.cert (Audit.mode_name m)) c) modes
  in
  let cert_steps =
    float_of_int
      (List.fold_left
         (fun acc m -> acc + Tracer.count tr ("certifier.feed." ^ Audit.mode_name m))
         0 modes)
  in
  let cert_key c =
    (* the certifier's registry prefixes, see [Certifier.create] *)
    [ "cert.conflict." ^ c; "cert.mvcg." ^ c ]
  in
  let cert_sum c =
    List.fold_left (fun acc name -> acc +. cert_counter name) 0. (cert_key c)
  in
  let values =
    pp (fun q -> Tracer.self tr ("engine.run." ^ q) /. k)
    @ pp (fun q -> div (t ("ticks." ^ q)) (t ("commits." ^ q)))
    @ pp (fun q ->
          div (t ("commits." ^ q) +. t ("aborts." ^ q)) (t ("commits." ^ q)))
    @ pp (fun q -> div (t ("blocked_ticks." ^ q)) (t ("legs." ^ q)))
    @ List.map (fun r -> counter p.engine ("engine.abort." ^ r) /. k) abort_reasons
    @ [
        hist p.engine "engine.cert.feed_s" (fun s -> s.Metrics.p99);
        counter p.engine "engine.cert.reorder-moves" /. k;
        counter p.engine "engine.commit-waits" /. k;
        counter p.engine "engine.ro.offloop" /. k;
        counter p.engine "engine.ro.deferred" /. k;
        hist p.engine "engine.stage.exec_s" (fun s -> s.Metrics.sum) /. k;
        hist p.engine "engine.stage.waves" (fun s -> s.Metrics.p50);
        hist p.engine "engine.stage.waves" (fun s -> s.Metrics.p95);
        hist p.engine "engine.stage.batch-txns" (fun s -> s.Metrics.p50);
        float_of_int (Metrics.gauge p.engine "engine.stage.batch-target");
      ]
    @ pp (fun q -> div (t ("max_version_chain." ^ q)) (t ("legs." ^ q)))
    @ pp (fun q -> div (t ("gc_pruned." ^ q)) (t ("commits." ^ q)))
    @ pp (fun q ->
          (Tracer.total tr ("wal.listener." ^ q)
          +. Tracer.total tr ("snapshot.capture." ^ q))
          /. k)
    @ pp (fun q ->
          div (counter (Probe.registry p.wal q) "wal.appends") (t ("commits." ^ q)))
    @ pp (fun q -> counter (Probe.registry p.wal q) "wal.forces" /. k)
    @ [
        hist p.engine "engine.ack-lag-ticks" (fun s -> s.Metrics.p99);
        sum (fun q -> Tracer.total tr ("snapshot.capture." ^ q)) pnames /. k;
        div (t "snapshot.bytes") (sum (fun q -> t ("legs." ^ q)) pnames);
        Tracer.total tr "recovery.read" /. k;
        Tracer.total tr "recovery.analysis" /. k;
        Tracer.total tr "recovery.assemble" /. k;
        Tracer.total tr "recovery.tail" /. k;
        Stats.percentile ~bp:5_000 (Tracer.samples tr "follower.catch_up");
        Stats.percentile ~bp:9_900 (Tracer.samples tr "follower.catch_up");
        Tracer.total tr "follower.certify" /. k;
        Stats.percentile ~bp:5_000 (samples_us "certifier.feed.csr");
        Stats.percentile ~bp:5_000 (samples_us "certifier.feed.mvcsr");
        Stats.percentile ~bp:9_900 (samples_us "certifier.feed.mvcsr");
        div (cert_sum "arcs") cert_steps;
        div (cert_sum "reorder-moves") cert_steps;
        cert_sum "rollbacks" /. k;
      ]
    @ pp (fun q -> Tracer.total tr ("checker.engine." ^ q))
    @ [
        Tracer.total tr "checker.certifier" /. k;
        Tracer.total tr "checker.classes" /. k;
      ]
    @ List.map
        (fun c -> Tracer.total tr ("classes." ^ c) /. k)
        [ "csr"; "vsr"; "fsr"; "mvcsr"; "mvsr"; "dmvsr" ]
    @ [
        t "analysis.ctx_builds" /. k;
        t "polygraph.branches" /. k;
        Tracer.total tr "sat.vsr" /. k;
        t "sat.decisions" /. k;
        t "sat.propagations" /. k;
        overhead_pct;
      ]
  in
  List.map2
    (fun (name, unit_) value -> { Out.name; unit_; value })
    per_layer_names values

(* Where a traced round's time goes, by layer: the engine's own time,
   then the bench-side spans and timed callbacks around each layer
   ("other" is bench work outside them and the GC settling). *)
let layer_shares tr traced =
  let wall = sum (fun r -> r.wall_s) traced in
  let total names = sum (Tracer.total tr) names in
  let per_policy prefixes =
    List.concat_map (fun pre -> List.map (fun q -> pre ^ q) pnames) prefixes
  in
  let parts =
    [
      ("engine", sum (fun q -> Tracer.self tr ("engine.run." ^ q)) pnames);
      ( "wal",
        total (per_policy [ "wal.listener."; "snapshot.capture."; "wal.durable." ]) );
      ( "recovery",
        total
          [ "recovery.read"; "recovery.analysis"; "recovery.assemble"; "recovery.tail" ]
      );
      ("follower", total [ "follower.catch_up"; "follower.certify" ]);
      ("certifier", total [ "certifier.feed.csr"; "certifier.feed.mvcsr" ]);
      ( "classes",
        total
          ("classes.report"
          :: List.map
               (fun c -> "classes." ^ c)
               [ "csr"; "vsr"; "fsr"; "mvcsr"; "mvsr"; "dmvsr" ]) );
      ("sat", total [ "sat.vsr" ]);
      ("checker", total [ "checker.certifier"; "checker.classes" ]);
    ]
  in
  "traced round time by layer: "
  ^ String.concat ", "
      (List.map
         (fun (name, t) -> Printf.sprintf "%s %.0f%%" name (100. *. div t wall))
         (parts @ [ ("other", wall -. sum snd parts) ]))

(* Exhausted-search rejections of the census re-checked per run (and
   again in the traced rounds): each costs the checker an exponential
   search. *)
let rejections_rechecked = 20

let setups = 5
let min_rounds = 3

let run ?(log = ignore) (w : Workload.t) ~seed ~seconds ~trace =
  let setups = List.init setups (fun _ -> Clock.time (fun () -> setup w ~seed)) in
  let inputs = fst (List.hd (List.rev setups)) in
  let setup_s = Stats.median (List.map snd setups) in
  let t0 = Clock.now () in
  let probe = if trace then Some (Probe.create ()) else None in
  let plain = ref [] and traced = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let record kind r =
    let a, f = accounting r in
    attempted := !attempted + a;
    failed := !failed + f;
    (* the round's own end-to-end values, as one round would report them *)
    let values =
      List.filter_map
        (fun (m : Out.metric) ->
          if m.name = "setup_s" then None
          else Some (Printf.sprintf "%s=%.6g" m.name m.value))
        (fst (end_to_end [ r ] ~setup_s))
    in
    log
      (Printf.sprintf "%s round %.3f s: %s; attempted %d failed %d" kind
         r.wall_s (String.concat " " values) a f)
  in
  let recheck = ref rejections_rechecked in
  let recheck_traced = ref rejections_rechecked in
  let rounds_done () = List.length !plain in
  (* stop before a round that would end past the budget, so a run's
     length stays close to [seconds] whatever a round costs *)
  let more () =
    let elapsed = Clock.now () -. t0 in
    let per_round = elapsed /. float_of_int (max 1 (rounds_done ())) in
    rounds_done () < min_rounds || elapsed +. per_round <= seconds
  in
  while more () do
    let index = rounds_done () in
    let r = round ~recheck w inputs ~index in
    record "untraced" r;
    plain := r :: !plain;
    if trace then begin
      let r = round ?probe ~recheck:recheck_traced w inputs ~index in
      record "traced" r;
      traced := r :: !traced
    end
  done;
  (* check runs: every policy's certificate, on the last round's batch *)
  let last = List.hd !plain in
  let batch = inputs.oltp.((rounds_done () - 1) mod Workload.batches) in
  List.iter
    (fun policy ->
      let expect = (leg_of last policy).final_state in
      attempted := !attempted + List.length batch.programs;
      failed := !failed + Oltp.check_run ?probe w.oltp batch policy ~expect)
    Oltp.policies;
  let e2e, notes = end_to_end !plain ~setup_s in
  let share = div (float_of_int !failed) (float_of_int !attempted) in
  let notes =
    notes
    @ [
        Printf.sprintf "ops_failed_share = %.6g ratio (%d failed of %d attempted)"
          share !failed !attempted;
        Printf.sprintf "rounds: %d untraced, %d traced" (List.length !plain)
          (List.length !traced);
      ]
  in
  let metrics =
    match probe with
    | None -> e2e
    | Some p ->
        let wall rs = Stats.median (List.map (fun r -> r.wall_s) rs) in
        let overhead_pct =
          100. *. (wall !traced -. wall !plain) /. wall !plain
        in
        per_layer p ~traced_rounds:(List.length !traced) ~overhead_pct
  in
  {
    metrics;
    notes =
      notes
      @ Option.to_list
          (Option.map (fun (p : Probe.t) -> layer_shares p.tr !traced) probe)
      @ List.map Out.human e2e;
    attempted = !attempted;
    failed = !failed;
    tracer = Option.map (fun (p : Probe.t) -> p.tr) probe;
  }
