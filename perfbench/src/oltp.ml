module E = Mvcc_engine.Engine
module Wal = Mvcc_durable.Wal
module Hook = Mvcc_durable.Hook
module Recovery = Mvcc_durable.Recovery
module Follower = Mvcc_durable.Follower
module Snapshot = Mvcc_durable.Snapshot
module Checker = Mvcc_provenance.Checker

type shape = {
  n_txns : int;
  n_entities : int;
  theta : float;
  read_fraction : float;
  mix_rounds : int;
  wal_commits : int;
  snapshot_every : int;
  max_ticks : int;
}

let policies = [ E.S2pl; E.To; E.Mvto; E.Si; E.Sgt ]
let cores = 2
let client_queues = 2
let reads_per_txn = 8
let writes_per_txn = 4

type input = {
  initial : (string * int) list;
  programs : Mvcc_engine.Program.t list;
  seed : int;
}

(* A batch holds exactly [read_fraction] read-only programs, dealt into
   seeded positions, so batches differ in footprint and order but not
   in their read/write mix. *)
let generate s ~seed =
  let n_ro = int_of_float (Float.round (float_of_int s.n_txns *. s.read_fraction)) in
  let gen ~read_fraction ~n_txns ~seed =
    Mvcc_workload.Program_gen.mixed ~n_entities:s.n_entities ~theta:s.theta
      ~read_fraction ~reads_per_txn ~writes_per_txn
      ~mix_rounds:s.mix_rounds ~n_txns ~seed
      ()
  in
  let initial, ro = gen ~read_fraction:1. ~n_txns:n_ro ~seed in
  let _, rw =
    gen ~read_fraction:0. ~n_txns:(s.n_txns - n_ro) ~seed:(Hashtbl.hash (seed, "rw"))
  in
  let rng = Random.State.make [| seed |] in
  let writer = Array.init s.n_txns (fun i -> i >= n_ro) in
  for i = s.n_txns - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = writer.(i) in
    writer.(i) <- writer.(j);
    writer.(j) <- t
  done;
  let ro = ref ro and rw = ref rw in
  let next q =
    match !q with
    | p :: rest ->
        q := rest;
        p
    | [] -> assert false
  in
  let programs =
    List.init s.n_txns (fun i ->
        let p : Mvcc_engine.Program.t = next (if writer.(i) then rw else ro) in
        { p with label = Printf.sprintf "%s%d" (if writer.(i) then "rw" else "ro") i })
  in
  { initial; programs; seed }

type leg = {
  policy : E.policy;
  submitted : int;
  commits : int;
  run_s : float;
  wal_bytes : int;
  recover_s : float;
  catch_up_s : float;
  replica_commits : int;
  failed : int;
  final_state : (string * int) list;
}

(* The production engine configuration, identical for every workload. *)
let run ?prov ?(obs = Mvcc_obs.Sink.noop) ~wal ~wal_durable s input policy =
  E.run ~policy ~initial:input.initial ~programs:input.programs
    ~max_ticks:s.max_ticks ~gc:true ~obs ?prov ~wal ~wal_durable
    ~snapshot_every:s.snapshot_every ~cores ~client_queues ~batch:E.Auto
    ~ro_snapshot:true ~seed:input.seed ()

let damaged (st : Mvcc_obs.Jsonl.stats) = st.skipped > 0 || st.torn_tail

let recovery_failures ~acked ~final_state ~commits (r : Recovery.t) =
  if damaged r.stats || r.state <> final_state then commits
  else max 0 (acked - List.length r.commit_order)

let recover ?probe policy forced =
  match probe with
  | None -> Recovery.recover ~policy (Wal.read_string forced)
  | Some _ ->
      let span name f = Probe.span probe name f in
      let read = span "recovery.read" (fun () -> Wal.read_string forced) in
      let a =
        span "recovery.analysis" (fun () ->
            let a = Recovery.analysis () in
            List.iter (fun (_, r) -> Recovery.observe a r) read.Wal.records;
            a)
      in
      span "recovery.assemble" (fun () ->
          Recovery.assemble ~policy ~stats:read.Wal.stats a)

(* Traced only: the snapshot-tail recovery path, from the encoded bytes
   of the last checkpoint. Returns whether it reproduces [final_state]. *)
let tail_recovers probe policy hook forced final_state =
  match Hook.last_snapshot hook with
  | None -> true
  | Some snap ->
      let bytes = Snapshot.encode snap in
      Probe.tally probe "snapshot.bytes" (float_of_int (String.length bytes));
      Probe.span (Some probe) "recovery.tail" (fun () ->
          match Snapshot.decode bytes with
          | None -> false
          | Some snapshot ->
              let r =
                Recovery.recover ~policy ~snapshot (Wal.read_string forced)
              in
              r.Recovery.state = final_state)

let leg ?probe s input policy =
  let pname = E.policy_name policy in
  let span name f = Probe.span probe name f in
  let wal_obs, obs =
    match probe with
    | None -> (Mvcc_obs.Sink.noop, Mvcc_obs.Sink.noop)
    | Some p -> (Probe.sink (Probe.registry p.wal pname), Probe.sink p.engine)
  in
  let writer =
    Wal.writer ~window:(Wal.window ~commits:s.wal_commits ()) ~obs:wal_obs ()
  in
  let hook = Hook.create writer in
  let wal, wal_durable =
    match probe with
    | None -> (Hook.listener hook, fun () -> Wal.acked_commits writer)
    | Some p ->
        (* called per WAL record and per tick: timed, not spanned *)
        let listener = Tracer.acc p.tr ("wal.listener." ^ pname)
        and capture = Tracer.acc p.tr ("snapshot.capture." ^ pname)
        and durable = Tracer.acc p.tr ("wal.durable." ^ pname) in
        ( (fun ev ->
            let a =
              match ev with E.Wal_checkpoint _ -> capture | _ -> listener
            in
            Tracer.timed p.tr a (fun () -> Hook.listener hook ev)),
          fun () -> Tracer.timed p.tr durable (fun () -> Wal.acked_commits writer)
        )
  in
  let r, run_s =
    Clock.time (fun () ->
        span ("engine.run." ^ pname) (fun () ->
            run ~obs ~wal ~wal_durable s input policy))
  in
  Wal.close writer;
  let forced = Wal.durable_contents writer in
  let acked = Wal.acked_commits writer in
  let commits = r.E.stats.E.commits in
  let final_state = r.E.final_state in
  let recovered, recover_s = Clock.time (fun () -> recover ?probe policy forced) in
  let f =
    Follower.create ~policy
      ?obs:(Option.map (fun (p : Probe.t) -> Probe.sink p.follower) probe)
      ()
  in
  (* ship the forced log one force boundary at a time: each chunk is
     what the leader's force added, so feeding it is a catch-up to that
     boundary without re-copying the whole prefix *)
  let catch_up_s, _ =
    List.fold_left
      (fun (acc, from) (b : Wal.boundary) ->
        let chunk = String.sub forced from (b.b_bytes - from) in
        let _, dt =
          Clock.time (fun () ->
              Probe.span ~keep:true probe "follower.catch_up" (fun () ->
                  Follower.feed f chunk))
        in
        (acc +. dt, b.b_bytes))
      (0., 0) (Wal.force_boundaries writer)
  in
  let _, _, certified =
    span "follower.certify" (fun () -> Follower.certify f)
  in
  let tail_ok =
    match probe with
    | None -> true
    | Some p -> tail_recovers p policy hook forced final_state
  in
  let diverged =
    Follower.read_view f <> final_state
    || Follower.commits_applied f <> acked
    || (not certified) || not tail_ok
  in
  let n = List.length input.programs in
  let failed =
    (n - commits)
    + (if diverged then commits
       else recovery_failures ~acked ~final_state ~commits recovered)
  in
  Option.iter
    (fun p ->
      let t k v = Probe.tally p (k ^ "." ^ pname) v in
      let st = r.E.stats in
      t "legs" 1.;
      t "commits" (float_of_int commits);
      t "aborts" (float_of_int st.E.aborts);
      t "ticks" (float_of_int st.E.ticks);
      t "blocked_ticks" (float_of_int st.E.blocked_ticks);
      t "gc_pruned" (float_of_int st.E.gc_pruned);
      t "max_version_chain" (float_of_int st.E.max_version_chain))
    probe;
  {
    policy;
    submitted = n;
    commits;
    run_s;
    wal_bytes = String.length forced;
    recover_s;
    catch_up_s;
    replica_commits = Follower.commits_applied f;
    failed = min n failed;
    final_state;
  }

let check_run ?probe s input policy ~expect =
  let prov = Mvcc_provenance.Log.create () in
  let writer = Wal.writer ~window:(Wal.window ~commits:s.wal_commits ()) () in
  let hook = Hook.create writer in
  let r =
    run ~prov ~wal:(Hook.listener hook)
      ~wal_durable:(fun () -> Wal.acked_commits writer)
      s input policy
  in
  let n = List.length input.programs in
  let confirmed =
    match r.E.provenance with
    | None -> false
    | Some (history, witness) ->
        Probe.span probe ("checker.engine." ^ E.policy_name policy) (fun () ->
            Checker.check history witness = Checker.Confirmed)
  in
  if (not confirmed) || r.E.final_state <> expect then n
  else n - r.E.stats.E.commits
