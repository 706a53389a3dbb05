type t = { name : string; oltp : Oltp.shape; audit : Audit.shape }

let batches = 32

(* Shared by both OLTP workloads: only the traffic differs. *)
let engine_defaults =
  {
    Oltp.n_txns = 256;
    n_entities = 768;
    theta = 0.6;
    read_fraction = 0.1;
    mix_rounds = 2_000;
    wal_commits = 8;
    snapshot_every = 64;
    max_ticks = 2_000_000;
  }

let light_audit ~entities ~theta ~read_fraction =
  {
    Audit.inputs = 8;
    cert_txns = 500;
    cert_entities = entities;
    cert_theta = theta;
    cert_read_fraction = read_fraction;
    classify_count = 40;
    classify_entities = 64;
  }

let oltp_write =
  let oltp = engine_defaults in
  {
    name = "oltp-write";
    oltp;
    audit =
      light_audit ~entities:oltp.n_entities ~theta:oltp.theta
        ~read_fraction:0.5;
  }

let oltp_read =
  let oltp =
    {
      engine_defaults with
      n_txns = 512;
      n_entities = 256;
      theta = 0.8;
      read_fraction = 0.9;
    }
  in
  {
    name = "oltp-read";
    oltp;
    audit =
      light_audit ~entities:oltp.n_entities ~theta:oltp.theta
        ~read_fraction:0.9;
  }

let audit =
  {
    name = "audit";
    oltp =
      {
        engine_defaults with
        n_txns = 256;
        n_entities = 256;
        theta = 0.3;
        read_fraction = 0.75;
      };
    audit =
      {
        Audit.inputs = 6;
        cert_txns = 750;
        cert_entities = 1_024;
        cert_theta = 0.8;
        cert_read_fraction = 0.5;
        classify_count = 100;
        classify_entities = 4;
      };
  }

let all = [ oltp_write; oltp_read; audit ]
let find name = List.find_opt (fun w -> w.name = name) all

let tiny w =
  {
    w with
    oltp =
      {
        w.oltp with
        n_txns = 12;
        n_entities = min w.oltp.n_entities 64;
        mix_rounds = 10;
        wal_commits = 3;
        snapshot_every = 4;
        max_ticks = 200_000;
      };
    audit =
      {
        w.audit with
        cert_txns = 12;
        cert_entities = min w.audit.cert_entities 16;
        classify_count = 4;
      };
  }

let describe w =
  let o = w.oltp and a = w.audit in
  [
    Printf.sprintf "workload %s" w.name;
    Printf.sprintf
      "oltp: closed loop, one client admitting a batch of %d programs at \
       once; policies s2pl to mvto si sgt; round i runs batch i mod %d"
      o.n_txns batches;
    Printf.sprintf
      "oltp: %d entities, zipf theta %.2f, read-only share %.2f (%d reads), \
       read-write programs %d RMW with Mix %d"
      o.n_entities o.theta o.read_fraction Oltp.reads_per_txn Oltp.writes_per_txn
      o.mix_rounds;
    Printf.sprintf
      "engine: cores %d, client queues %d, batch auto, ro_snapshot on, gc on, \
       max_ticks %d"
      Oltp.cores Oltp.client_queues o.max_ticks;
    Printf.sprintf
      "durability: group-commit WAL forced every %d commits, checkpoint every \
       %d commits; follower fed per force boundary, then full-log recovery"
      o.wal_commits o.snapshot_every;
    Printf.sprintf
      "audit: certify %d txns x %d steps over %d entities (theta %.2f, reads \
       %.2f) in csr and mvcsr mode; classify %d schedules of %d txns over %d \
       entities, %d-%d steps each; round i uses audit input i mod %d"
      a.cert_txns Audit.steps_per_txn a.cert_entities a.cert_theta
      a.cert_read_fraction a.classify_count Audit.classify_txns
      a.classify_entities Audit.classify_min_steps Audit.classify_max_steps a.inputs;
  ]
