(* Tests for the metrics registry (Lubt_obs.Metrics) and the
   Prometheus text exposition (Lubt_obs.Prometheus): bucket layout and
   indexing, counter/gauge/histogram semantics across enable/disable
   and reset, the 4-domain concurrent record/merge race, golden label
   escaping, bucket cumulativity with the +Inf terminator, header
   grouping of labelled families, the nearest-rank percentile vs
   bucketed quantile agreement that pins the serve breaker's p95
   rewrite, and the serve [metrics] op / Prometheus consistency. *)

module Metrics = Lubt_obs.Metrics
module Prometheus = Lubt_obs.Prometheus
module Json = Lubt_obs.Json
module Stats = Lubt_util.Stats
module Prng = Lubt_util.Prng
module Serve = Lubt_experiments.Serve

(* every test records into the one process-wide registry: unique metric
   names per test keep them independent, and each recording test
   re-enables after itself is done *)
let with_enabled f =
  Metrics.enable ();
  Fun.protect ~finally:Metrics.disable f

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  go 0

let find_sample name =
  List.find_opt
    (fun (s : Metrics.sample) -> s.Metrics.s_name = name)
    (Metrics.snapshot ())

let counter_value name =
  match find_sample name with
  | Some { Metrics.s_value = Metrics.Counter v; _ } -> v
  | _ -> nan

(* ------------------------------------------------------------------ *)
(* Bucket layout                                                       *)
(* ------------------------------------------------------------------ *)

let test_buckets_log () =
  let b = Metrics.Buckets.log ~lo:0.01 ~hi:10_000.0 ~count:28 in
  Alcotest.(check int) "count" 28 (Array.length b);
  Alcotest.(check (float 1e-12)) "first is lo" 0.01 b.(0);
  Alcotest.(check (float 0.0)) "last is exactly hi" 10_000.0 b.(27);
  Array.iteri
    (fun i v ->
      if i > 0 then
        Alcotest.(check bool) "strictly ascending" true (v > b.(i - 1)))
    b;
  Alcotest.check_raises "lo must be positive"
    (Invalid_argument "Metrics.Buckets.log: need 0 < lo < hi") (fun () ->
      ignore (Metrics.Buckets.log ~lo:0.0 ~hi:1.0 ~count:4))

let test_buckets_index () =
  let b = [| 1.0; 2.0; 4.0; 8.0 |] in
  let idx = Metrics.Buckets.index b in
  Alcotest.(check int) "below lo" 0 (idx 0.5);
  Alcotest.(check int) "boundary is inclusive" 0 (idx 1.0);
  Alcotest.(check int) "interior" 2 (idx 3.0);
  Alcotest.(check int) "top boundary" 3 (idx 8.0);
  Alcotest.(check int) "above hi -> overflow" 4 (idx 9.0);
  Alcotest.(check int) "nan -> overflow" 4 (idx nan);
  Alcotest.(check int) "+inf -> overflow" 4 (idx infinity)

let test_buckets_quantile () =
  let bounds = [| 1.0; 2.0; 4.0 |] in
  (* counts: 1 in (0,1], 2 in (1,2], 0 in (2,4], 3 overflow *)
  let counts = [| 1; 2; 0; 3 |] in
  let q p = Metrics.Buckets.quantile ~bounds ~counts p in
  Alcotest.(check (float 0.0)) "empty -> 0"
    0.0
    (Metrics.Buckets.quantile ~bounds ~counts:[| 0; 0; 0; 0 |] 0.5);
  Alcotest.(check (float 0.0)) "min rank" 1.0 (q 0.0);
  Alcotest.(check (float 0.0)) "median in second bucket" 2.0 (q 0.5);
  Alcotest.(check (float 0.0)) "overflow reports last finite bound" 4.0 (q 1.0)

(* ------------------------------------------------------------------ *)
(* Registry semantics                                                  *)
(* ------------------------------------------------------------------ *)

let test_counter_roundtrip () =
  with_enabled (fun () ->
      let c = Metrics.counter ~help:"h" "tm_counter_total" in
      Metrics.incr c;
      Metrics.incr ~by:2.5 c;
      Alcotest.(check (float 1e-9)) "sum" 3.5 (counter_value "tm_counter_total");
      (* same (name, labels) -> the same underlying metric *)
      let c' = Metrics.counter "tm_counter_total" in
      Metrics.incr c';
      Alcotest.(check (float 1e-9))
        "idempotent registration shares storage" 4.5
        (counter_value "tm_counter_total"))

let test_disabled_is_noop () =
  let c = Metrics.counter "tm_disabled_total" in
  Metrics.disable ();
  Metrics.incr c;
  Metrics.incr ~by:100.0 c;
  Alcotest.(check (float 0.0)) "nothing recorded" 0.0
    (counter_value "tm_disabled_total")

let test_kind_mismatch () =
  ignore (Metrics.counter "tm_kind_clash");
  match Metrics.gauge "tm_kind_clash" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument on kind mismatch"

let test_gauge_and_reset () =
  with_enabled (fun () ->
      let g = Metrics.gauge "tm_gauge" in
      let c = Metrics.counter "tm_reset_total" in
      Metrics.set g 7.0;
      Metrics.set g 42.0;
      Metrics.incr c;
      (match find_sample "tm_gauge" with
      | Some { Metrics.s_value = Metrics.Gauge v; _ } ->
        Alcotest.(check (float 0.0)) "last write wins" 42.0 v
      | _ -> Alcotest.fail "gauge sample missing");
      Metrics.reset ();
      (match find_sample "tm_gauge" with
      | Some { Metrics.s_value = Metrics.Gauge v; _ } ->
        Alcotest.(check (float 0.0)) "reset zeroes gauges" 0.0 v
      | _ -> Alcotest.fail "gauge sample missing after reset");
      Alcotest.(check (float 0.0)) "reset orphans counter cells" 0.0
        (counter_value "tm_reset_total"))

let test_histogram_snapshot () =
  with_enabled (fun () ->
      let h =
        Metrics.histogram ~buckets:[| 1.0; 2.0; 4.0 |] "tm_hist_ms"
      in
      List.iter (Metrics.observe h) [ 0.5; 1.5; 1.6; 3.0; 100.0 ];
      match find_sample "tm_hist_ms" with
      | Some { Metrics.s_value = Metrics.Histogram s; _ } ->
        Alcotest.(check int) "count" 5 s.Metrics.h_count;
        Alcotest.(check (float 1e-9)) "sum" 106.6 s.Metrics.h_sum;
        Alcotest.(check (array int)) "per-bucket counts"
          [| 1; 2; 1; 1 |] s.Metrics.h_counts;
        Alcotest.(check int) "counts sum to count" s.Metrics.h_count
          (Array.fold_left ( + ) 0 s.Metrics.h_counts)
      | _ -> Alcotest.fail "histogram sample missing")

(* a handle read is the snapshot's value for that handle, merged over
   every domain that recorded *)
let test_handle_reads () =
  with_enabled (fun () ->
      let c = Metrics.counter "tm_read_total" in
      let h = Metrics.histogram ~buckets:[| 1.0; 10.0 |] "tm_read_ms" in
      let record () =
        Metrics.incr ~by:2.0 c;
        List.iter (Metrics.observe h) [ 0.5; 5.0; 50.0 ]
      in
      record ();
      Domain.join (Domain.spawn record);
      Alcotest.(check (float 0.0)) "counter read = snapshot"
        (counter_value "tm_read_total") (Metrics.read_counter c);
      Alcotest.(check (float 0.0)) "counter merges both domains" 4.0
        (Metrics.read_counter c);
      let r = Metrics.read_histogram h in
      Alcotest.(check (array int)) "histogram merges both domains"
        [| 2; 2; 2 |] r.Metrics.h_counts;
      match find_sample "tm_read_ms" with
      | Some { Metrics.s_value = Metrics.Histogram s; _ } ->
        Alcotest.(check bool) "histogram read = snapshot" true (s = r)
      | _ -> Alcotest.fail "histogram sample missing")

(* Four domains hammer one counter and one histogram while the main
   domain snapshots concurrently: snapshots must never crash or report
   a total above the true one, and after the join the merge is exact. *)
let test_concurrent_domains () =
  with_enabled (fun () ->
      let c = Metrics.counter "tm_race_total" in
      let h =
        Metrics.histogram ~buckets:[| 1.0; 2.0; 4.0; 8.0 |] "tm_race_ms"
      in
      let per_domain = 25_000 in
      let domains = 4 in
      let spin = Atomic.make true in
      let snapshotter =
        Domain.spawn (fun () ->
            while Atomic.get spin do
              List.iter
                (fun (s : Metrics.sample) ->
                  match s.Metrics.s_value with
                  | Metrics.Histogram hs ->
                    assert (
                      Array.fold_left ( + ) 0 hs.Metrics.h_counts
                      = hs.Metrics.h_count)
                  | _ -> ())
                (Metrics.snapshot ())
            done)
      in
      let workers =
        List.init domains (fun d ->
            Domain.spawn (fun () ->
                for i = 1 to per_domain do
                  Metrics.incr c;
                  Metrics.observe h (float_of_int ((i + d) mod 10))
                done))
      in
      List.iter Domain.join workers;
      Atomic.set spin false;
      Domain.join snapshotter;
      Alcotest.(check (float 0.0))
        "counter merges exactly"
        (float_of_int (domains * per_domain))
        (counter_value "tm_race_total");
      match find_sample "tm_race_ms" with
      | Some { Metrics.s_value = Metrics.Histogram s; _ } ->
        Alcotest.(check int) "histogram count merges exactly"
          (domains * per_domain) s.Metrics.h_count;
        Alcotest.(check int) "bucket counts merge exactly"
          (domains * per_domain)
          (Array.fold_left ( + ) 0 s.Metrics.h_counts)
      | _ -> Alcotest.fail "histogram sample missing")

(* ------------------------------------------------------------------ *)
(* Prometheus exposition                                               *)
(* ------------------------------------------------------------------ *)

let test_prometheus_escaping_golden () =
  let sample =
    {
      Metrics.s_name = "esc_total";
      s_help = "has \\ and \"quotes\"\nnewline";
      s_labels = [ ("path", "a\\b\"c\nd") ];
      s_value = Metrics.Counter 3.0;
    }
  in
  let expected =
    "# HELP esc_total has \\\\ and \"quotes\"\\nnewline\n"
    ^ "# TYPE esc_total counter\n"
    ^ "esc_total{path=\"a\\\\b\\\"c\\nd\"} 3\n"
  in
  Alcotest.(check string) "golden" expected (Prometheus.render [ sample ])

let test_prometheus_histogram_cumulative () =
  let sample =
    {
      Metrics.s_name = "lat_ms";
      s_help = "";
      s_labels = [ ("op", "solve") ];
      s_value =
        Metrics.Histogram
          {
            Metrics.h_bounds = [| 1.0; 2.0; 4.0 |];
            h_counts = [| 1; 2; 0; 3 |];
            h_sum = 10.5;
            h_count = 6;
          };
    }
  in
  let expected =
    "# TYPE lat_ms histogram\n"
    ^ "lat_ms_bucket{op=\"solve\",le=\"1\"} 1\n"
    ^ "lat_ms_bucket{op=\"solve\",le=\"2\"} 3\n"
    ^ "lat_ms_bucket{op=\"solve\",le=\"4\"} 3\n"
    ^ "lat_ms_bucket{op=\"solve\",le=\"+Inf\"} 6\n"
    ^ "lat_ms_sum{op=\"solve\"} 10.5\n"
    ^ "lat_ms_count{op=\"solve\"} 6\n"
  in
  Alcotest.(check string) "cumulative buckets terminated by +Inf" expected
    (Prometheus.render [ sample ])

let test_prometheus_grouping () =
  (* a labelled family interleaved with another metric must still render
     as one # TYPE header with its series together *)
  let c name labels v =
    { Metrics.s_name = name; s_help = ""; s_labels = labels;
      s_value = Metrics.Counter v }
  in
  let rendered =
    Prometheus.render
      [ c "fam_total" [ ("rung", "certified") ] 1.0;
        c "other_total" [] 5.0;
        c "fam_total" [ ("rung", "heuristic") ] 2.0 ]
  in
  let expected =
    "# TYPE fam_total counter\n"
    ^ "fam_total{rung=\"certified\"} 1\n"
    ^ "fam_total{rung=\"heuristic\"} 2\n"
    ^ "# TYPE other_total counter\n"
    ^ "other_total 5\n"
  in
  Alcotest.(check string) "one header per family" expected rendered

let test_prometheus_tokens () =
  let g name v =
    { Metrics.s_name = name; s_help = ""; s_labels = [];
      s_value = Metrics.Gauge v }
  in
  let rendered =
    Prometheus.render [ g "g_nan" nan; g "g_inf" infinity ]
  in
  Alcotest.(check bool) "NaN token" true (contains rendered "g_nan NaN\n");
  Alcotest.(check bool) "+Inf token" true (contains rendered "g_inf +Inf\n")

(* ------------------------------------------------------------------ *)
(* percentile vs bucketed quantile (the breaker p95 pin)               *)
(* ------------------------------------------------------------------ *)

(* The serve breaker used to sort its latency window and take the
   nearest-rank p95 (exactly [Stats.percentile]); it now reads the p95
   from bucket counts. Pin their agreement: the bucketed estimate is
   the upper bound of the bucket holding the exact nearest-rank sample,
   i.e. same bucket, and never below the exact value. *)
let prop_percentile_quantile_agree =
  QCheck.Test.make ~name:"Stats.percentile vs Buckets.quantile" ~count:200
    QCheck.(pair (int_range 1 400) (int_bound 97))
    (fun (n, pseed) ->
      let rng = Prng.create (1000 + n + (pseed * 131)) in
      let bounds = Metrics.Buckets.log ~lo:0.01 ~hi:10_000.0 ~count:28 in
      let samples =
        Array.init n (fun _ -> 0.01 *. exp (Prng.float rng 13.0))
      in
      let counts = Array.make (Array.length bounds + 1) 0 in
      Array.iter
        (fun v ->
          let i = Metrics.Buckets.index bounds v in
          counts.(i) <- counts.(i) + 1)
        samples;
      let sorted = Array.copy samples in
      Array.sort Float.compare sorted;
      let p = float_of_int (2 + pseed) in
      let exact = Stats.percentile sorted p in
      let est = Metrics.Buckets.quantile ~bounds ~counts (p /. 100.0) in
      (* the exact sample and the estimate sit in the same bucket, and
         the estimate (a bucket upper bound) never undershoots *)
      Metrics.Buckets.index bounds exact = Metrics.Buckets.index bounds est
      && est >= exact)

let test_percentile_empty () =
  Alcotest.(check bool) "empty -> nan" true
    (Float.is_nan (Stats.percentile [||] 95.0));
  Alcotest.(check (float 0.0)) "singleton" 7.0 (Stats.percentile [| 7.0 |] 95.0)

(* ------------------------------------------------------------------ *)
(* serve: the metrics op and the exposition agree                      *)
(* ------------------------------------------------------------------ *)

let test_serve_metrics_op () =
  with_enabled (fun () ->
      let reply = Serve.response_of_request "{\"id\": \"m\", \"op\": \"metrics\"}" in
      match Json.parse reply with
      | Error e -> Alcotest.failf "metrics reply unparseable: %s" e
      | Ok j ->
        Alcotest.(check bool) "ok" true
          (Json.member "ok" j = Some (Json.Bool true));
        let samples =
          match Json.member "metrics" j with
          | Some (Json.Arr l) -> l
          | _ -> Alcotest.fail "no metrics array"
        in
        (* the JSON dump and the Prometheus text come from the same
           registry, so every dumped name must appear in the text *)
        let text = Prometheus.render (Metrics.snapshot ()) in
        List.iter
          (fun s ->
            match Json.member "name" s with
            | Some (Json.Str name) ->
              Alcotest.(check bool)
                ("exposition carries " ^ name)
                true (contains text name)
            | _ -> Alcotest.fail "sample without name")
          samples)

let () =
  Alcotest.run "metrics"
    [
      ( "buckets",
        [
          Alcotest.test_case "log layout" `Quick test_buckets_log;
          Alcotest.test_case "index" `Quick test_buckets_index;
          Alcotest.test_case "quantile" `Quick test_buckets_quantile;
        ] );
      ( "registry",
        [
          Alcotest.test_case "counter" `Quick test_counter_roundtrip;
          Alcotest.test_case "disabled no-op" `Quick test_disabled_is_noop;
          Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch;
          Alcotest.test_case "gauge and reset" `Quick test_gauge_and_reset;
          Alcotest.test_case "histogram snapshot" `Quick test_histogram_snapshot;
          Alcotest.test_case "handle reads" `Quick test_handle_reads;
          Alcotest.test_case "4-domain record/merge race" `Quick
            test_concurrent_domains;
        ] );
      ( "prometheus",
        [
          Alcotest.test_case "escaping golden" `Quick
            test_prometheus_escaping_golden;
          Alcotest.test_case "histogram cumulativity" `Quick
            test_prometheus_histogram_cumulative;
          Alcotest.test_case "family grouping" `Quick test_prometheus_grouping;
          Alcotest.test_case "non-finite tokens" `Quick test_prometheus_tokens;
        ] );
      ( "quantiles",
        [
          QCheck_alcotest.to_alcotest prop_percentile_quantile_agree;
          Alcotest.test_case "percentile edge cases" `Quick
            test_percentile_empty;
        ] );
      ( "serve",
        [ Alcotest.test_case "metrics op" `Quick test_serve_metrics_op ] );
    ]
