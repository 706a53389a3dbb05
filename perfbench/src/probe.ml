module Metrics = Mvcc_obs.Metrics

type t = {
  tr : Tracer.t;
  engine : Metrics.t;
  wal : (string, Metrics.t) Hashtbl.t;
  follower : Metrics.t;
  cert : (string, Metrics.t) Hashtbl.t;
  tallies : (string, float) Hashtbl.t;
}

let create () =
  {
    tr = Tracer.create ();
    engine = Metrics.create ();
    wal = Hashtbl.create 8;
    follower = Metrics.create ();
    cert = Hashtbl.create 2;
    tallies = Hashtbl.create 64;
  }

let registry tbl key =
  match Hashtbl.find_opt tbl key with
  | Some m -> m
  | None ->
      let m = Metrics.create () in
      Hashtbl.add tbl key m;
      m

let sink m = Mvcc_obs.Sink.create ~metrics:m ()

let tallied p name = Option.value (Hashtbl.find_opt p.tallies name) ~default:0.
let tally p name v = Hashtbl.replace p.tallies name (tallied p name +. v)

let span ?keep p name f =
  match p with None -> f () | Some p -> Tracer.span ?keep p.tr name f
