(* Self-tests of the benchmark: its percentile helper, its metric
   names, a tiny run of every workload, and the durability check's
   reaction to a damaged log. *)

open Perfbench
module E = Mvcc_engine.Engine
module Wal = Mvcc_durable.Wal

let floats n = List.init n (fun i -> float_of_int (i + 1))

let test_tail () =
  let check n ~bp ~value ~beyond =
    match Stats.tail (floats n) with
    | None -> Alcotest.failf "no tail for %d samples" n
    | Some t ->
        Alcotest.(check int) "percentile" bp t.Stats.bp;
        Alcotest.(check (float 0.)) "value" value t.value;
        Alcotest.(check int) "beyond" beyond t.beyond;
        Alcotest.(check int) "count" n t.count
  in
  check 1000 ~bp:9_900 ~value:990. ~beyond:10;
  check 10_000 ~bp:9_990 ~value:9_990. ~beyond:10;
  check 999 ~bp:9_500 ~value:950. ~beyond:49;
  check 100 ~bp:9_000 ~value:90. ~beyond:10;
  check 20 ~bp:5_000 ~value:10. ~beyond:10;
  Alcotest.(check bool) "19 samples: none" true (Stats.tail (floats 19) = None);
  Alcotest.(check string) "p99.9" "p99.9" (Stats.pct_name 9_990);
  Alcotest.(check string) "p99.99" "p99.99" (Stats.pct_name 9_999);
  Alcotest.(check string) "p50" "p50" (Stats.pct_name 5_000)

let test_order_stats () =
  Alcotest.(check (float 0.)) "odd median" 2. (Stats.median [ 3.; 1.; 2. ]);
  Alcotest.(check (float 0.)) "even median" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.(check (float 0.)) "p99 of 100" 99. (Stats.percentile ~bp:9_900 (floats 100));
  Alcotest.(check int) "beyond p99 of 1000" 10 (Stats.beyond ~bp:9_900 1000)

let test_names () =
  let names = List.map fst (Bench.end_to_end_names @ Bench.per_layer_names) in
  List.iter
    (fun n ->
      if not (Out.valid_name n) then Alcotest.failf "bad metric name %S" n)
    names;
  Alcotest.(check int)
    "names are unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun bad ->
      Alcotest.(check bool) (Printf.sprintf "%S rejected" bad) false
        (Out.valid_name bad))
    [ ""; "a b"; "p99/csr"; "\xc2\xb5s" ]

let smoke (w : Workload.t) trace () =
  let w = Workload.tiny w in
  let r = Bench.run w ~seed:7 ~seconds:0. ~trace in
  Alcotest.(check int) "no failures" 0 r.failed;
  Alcotest.(check bool) "something attempted" true (r.attempted > 0);
  let expected = if trace then Bench.per_layer_names else Bench.end_to_end_names in
  Alcotest.(check (list string))
    "metric names" (List.map fst expected)
    (List.map (fun (m : Out.metric) -> m.name) r.metrics);
  List.iter
    (fun (m : Out.metric) ->
      if not (Float.is_finite m.value) then
        Alcotest.failf "%s is not finite" m.name)
    r.metrics

let test_flipped_byte () =
  let w = Workload.tiny (List.hd Workload.all) in
  let input = Oltp.generate w.oltp ~seed:3 in
  let writer = Wal.writer ~window:(Wal.window ~commits:2 ()) () in
  let hook = Mvcc_durable.Hook.create writer in
  let r =
    E.run ~policy:E.Mvto ~initial:input.initial ~programs:input.programs
      ~wal:(Mvcc_durable.Hook.listener hook) ~seed:3 ()
  in
  Wal.close writer;
  let forced = Wal.durable_contents writer in
  let commits = r.E.stats.E.commits in
  let failures bytes =
    Oltp.recovery_failures ~acked:(Wal.acked_commits writer)
      ~final_state:r.E.final_state ~commits
      (Mvcc_durable.Recovery.recover ~policy:E.Mvto (Wal.read_string bytes))
  in
  Alcotest.(check int) "intact log: no failures" 0 (failures forced);
  let damaged = Bytes.of_string forced in
  let i = Bytes.length damaged / 2 in
  (* flip a byte that is not a line break, so one record is damaged *)
  let i = if Bytes.get damaged i = '\n' then i + 1 else i in
  Bytes.set damaged i (Char.chr (Char.code (Bytes.get damaged i) lxor 0x01));
  Alcotest.(check int) "flipped byte: every commit failed" commits
    (failures (Bytes.to_string damaged))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail percentile" `Quick test_tail;
          Alcotest.test_case "order statistics" `Quick test_order_stats;
        ] );
      ("names", [ Alcotest.test_case "metric names" `Quick test_names ]);
      ( "smoke",
        List.concat_map
          (fun (w : Workload.t) ->
            [
              Alcotest.test_case (w.name ^ " untraced") `Quick (smoke w false);
              Alcotest.test_case (w.name ^ " traced") `Quick (smoke w true);
            ])
          Workload.all );
      ("durability", [ Alcotest.test_case "flipped byte" `Quick test_flipped_byte ]);
    ]
