(* The redspider benchmark: one workload per run, every output checked,
   every metric printed by name with its unit.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              --daemon-exe PATH [--rounds R] [--commit C] [--source-md5 M]
     main.exe --selftest

   Standard output: a header line, informational lines starting with
   '#', and as its last line one JSON object
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
   metrics are the end-to-end ones; with --trace 1 the per-layer ones,
   from a run that records spans around each call into a layer.
   [--rounds] replaces the time limit by a fixed number of passes or
   rounds per client (the determinism check uses it). *)

open Core
module J = Util.J

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  rounds : int option;
  exe : string;
  commit : string;
  source_md5 : string;
}

(* --- metric sets -------------------------------------------------------- *)

let end_to_end =
  [
    ("setup_s", "s"); ("batch_s", "s"); ("alloc_mwords", "Mwords");
    ("heap_peak_mb", "MB"); ("jobs_per_s", "jobs/s"); ("job_ms_p50", "ms");
    ("job_ms_p95", "ms"); ("rss_peak_mb", "MB");
  ]

let per_layer =
  [
    ("tgd.chase_ms", "ms"); ("tgd.alloc_mwords", "Mwords");
    ("greengraph.chase_ms", "ms"); ("greengraph.alloc_mwords", "Mwords");
    ("reduction.pipeline_ms", "ms"); ("reduction.finite_model_ms", "ms");
    ("determinacy.solve_ms", "ms"); ("rainworm.creep_ms", "ms");
    ("hom.candidates_scanned", "count"); ("hom.unify_attempts", "count");
    ("hom.backtracks", "count"); ("plan.compilations", "count");
    ("tgd.triggers_considered", "count"); ("tgd.firings", "count");
    ("tgd.head_checks", "count"); ("graph.triggers_considered", "count");
    ("graph.pair_checks", "count"); ("graph.firings", "count");
    ("arena.facts", "count"); ("tgd.fire_ratio", "ratio");
    ("graph.fire_ratio", "ratio"); ("hom.unify_ratio", "ratio");
    ("gc.minor_collections", "count"); ("gc.major_collections", "count");
    ("serve.submit_ms_p50", "ms"); ("serve.run_ms_p50", "ms");
    ("serve.queue_ms_p50", "ms"); ("serve.slices", "count");
    ("serve.sched_idle_ms", "ms"); ("serve.cache_hits", "count");
    ("serve.cache_misses", "count"); ("serve.cache_coalesced", "count");
    ("serve.cache_hit_ratio", "ratio"); ("serve.store_bytes", "bytes");
    ("serve.store_files", "count"); ("serve.json_us", "us");
    ("serve.chase_ms_p50", "ms"); ("serve.divergent_ms_p50", "ms");
    ("serve.worm_ms_p50", "ms"); ("serve.determinacy_ms_p50", "ms");
    ("serve.hit_ms_p50", "ms"); ("serve.edit_ms_p50", "ms");
    ("serve.read_ms_p50", "ms"); ("tgd.maint_edit_ms", "ms");
    ("tgd.maint_killed", "count"); ("tgd.maint_refired", "count");
    ("trace.overhead_batch_ms", "ms"); ("trace.overhead_job_ms_p50", "ms");
  ]

(* The result line.  A per-layer metric the workload does not exercise
   reads 0 (see README: which workload measures which metric). *)
let print_result ~attempted ~failed ~trace values =
  let fmt v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let metrics =
    List.map
      (fun (name, unit) ->
        let v = Option.value ~default:0. (List.assoc_opt name values) in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (fmt v) unit)
      (if trace then per_layer else end_to_end)
  in
  (* a wrong output counts its operation as failed, so the operations
     that did not fail are correct by construction *)
  Printf.printf
    "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    attempted failed
    (String.concat ", " metrics)

let info key json = Printf.printf "# %s %s\n%!" key (J.to_string json)

let ms s = s *. 1000.
let mb_of_words w = w *. float (Sys.word_size / 8) /. 1e6

let self_rss_mb () =
  Option.fold ~none:nan
    ~some:(fun kb -> float kb /. 1000.)
    (Util.proc_status_kb (Unix.getpid ()) "VmHWM")

let write_trace a spans =
  let path =
    Filename.concat Util.run_dir
      (Printf.sprintf "trace-%s-%d.json" a.workload a.seed)
  in
  Span.export path spans;
  info "self_ms"
    (J.Obj
       (List.map (fun (k, v) -> (k, J.Float (ms v))) (Span.self_by_name spans)));
  info "trace_file" (J.String path)

(* --- paper-batch -------------------------------------------------------- *)

let paper_batch a =
  (* set-up builds the inputs in tens of microseconds: the median of
     many builds keeps the figure steady *)
  let setups =
    List.init 201 (fun _ ->
        let t0 = Util.now () in
        let inp = Batch.build_inputs () in
        (Util.now () -. t0, inp))
  in
  let inp = snd (List.hd setups) in
  let refs = Batch.references ~seed:a.seed inp in
  let calls = Batch.calls inp refs in
  let rec_ = Span.recorder ~on:false 1 in
  let t_start = Util.now () in
  let rec loop i acc =
    let stop =
      match a.rounds with
      | Some n -> i >= n
      | None -> i >= 2 && Util.now () -. t_start >= a.seconds
    in
    if stop then List.rev acc
    else begin
      let order = Util.shuffle (Util.rng a.seed (100 + i)) calls in
      let traced = a.trace && i mod 2 = 0 in
      rec_.Span.on <- traced;
      let pass, problems =
        Batch.run_pass ~rec_ ~traced ~order ~pass_no:i
      in
      List.iter (List.iter prerr_endline) problems;
      loop (i + 1) ((pass, problems) :: acc)
    end
  in
  let passes = loop 0 [] in
  let attempted = List.length passes * List.length calls in
  let failed =
    List.fold_left
      (fun n (_, ps) -> n + List.length (List.filter (( <> ) []) ps))
      0 passes
  in
  let passes = List.map fst passes in
  let traced, untraced = List.partition (fun p -> p.Batch.traced) passes in
  let call_ms ps =
    List.concat_map
      (fun p -> List.map (fun s -> ms s.Batch.wall_s) p.Batch.samples)
      ps
  in
  let pass_words = Util.median (List.map (fun p -> p.Batch.pass_words) untraced) in
  let counters_per_pass =
    List.map
      (fun p ->
        let tbl = Hashtbl.create 16 in
        List.iter
          (fun s ->
            List.iter
              (fun (k, v) ->
                Hashtbl.replace tbl k
                  (v + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
              s.Batch.counters)
          p.Batch.samples;
        List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []))
      traced
  in
  info "determinism"
    (J.Obj
       [
         ("alloc_words_per_pass", J.Float pass_words);
         ( "counters",
           J.List
             (List.map
                (fun cs -> J.Obj (List.map (fun (k, v) -> (k, J.Int v)) cs))
                counters_per_pass) );
       ]);
  info "samples"
    (J.Obj
       [
         ("setup_s", J.Int (List.length setups));
         ("batch_s", J.Int (List.length untraced));
         ("job_ms", J.Int (List.length (call_ms untraced)));
       ]);
  let values =
    if not a.trace then
      [
        ("setup_s", Util.median (List.map fst setups));
        ("batch_s", Util.median (List.map (fun p -> p.Batch.pass_s) untraced));
        ("alloc_mwords", pass_words /. 1e6);
        ("heap_peak_mb", mb_of_words (float (Gc.quick_stat ()).Gc.top_heap_words));
        ( "jobs_per_s",
          float attempted
          /. List.fold_left (fun s p -> s +. p.Batch.pass_s) 0. untraced );
        ("job_ms_p50", Util.percentile 0.50 (call_ms untraced));
        ("job_ms_p95", Util.percentile 0.95 (call_ms untraced));
        ("rss_peak_mb", self_rss_mb ());
      ]
    else begin
      let spans = Span.spans [ rec_ ] in
      write_trace a spans;
      (* per layer: self time per traced pass, from the spans *)
      let selfs = Span.self_times spans in
      let per_pass name =
        Util.median
          (List.map
             (fun job ->
               List.fold_left
                 (fun acc (s, self) ->
                   if s.Span.name = name && s.Span.job = job then acc +. self
                   else acc)
                 0. selfs)
             (List.sort_uniq compare
                (List.filter_map
                   (fun s -> if s.Span.name = "pass" then Some s.Span.job else None)
                   spans)))
      in
      let alloc layer =
        Util.median
          (List.map
             (fun p ->
               List.fold_left
                 (fun acc s ->
                   if s.Batch.layer = layer then acc +. s.Batch.alloc_words
                   else acc)
                 0. p.Batch.samples)
             traced)
        /. 1e6
      in
      let counter k =
        Util.median
          (List.map
             (fun cs -> float (Option.value ~default:0 (List.assoc_opt k cs)))
             counters_per_pass)
      in
      let ratio n d = if counter d = 0. then 0. else counter n /. counter d in
      [
        ("tgd.chase_ms", ms (per_pass "tgd.chase"));
        ("tgd.alloc_mwords", alloc "tgd.chase");
        ("greengraph.chase_ms", ms (per_pass "greengraph.chase"));
        ("greengraph.alloc_mwords", alloc "greengraph.chase");
        ("reduction.pipeline_ms", ms (per_pass "reduction.pipeline"));
        ("reduction.finite_model_ms", ms (per_pass "reduction.finite_model"));
        ("determinacy.solve_ms", ms (per_pass "determinacy.solve"));
        ("rainworm.creep_ms", ms (per_pass "rainworm.creep"));
        ("tgd.fire_ratio", ratio "tgd.firings" "tgd.triggers_considered");
        ("graph.fire_ratio", ratio "graph.firings" "graph.triggers_considered");
        ("hom.unify_ratio", ratio "hom.unify_attempts" "hom.candidates_scanned");
        ( "gc.minor_collections",
          Util.median (List.map (fun p -> float p.Batch.minor_gcs) traced) );
        ( "gc.major_collections",
          Util.median (List.map (fun p -> float p.Batch.major_gcs) traced) );
        ( "trace.overhead_batch_ms",
          ms
            (Util.median (List.map (fun p -> p.Batch.pass_s) traced)
            -. Util.median (List.map (fun p -> p.Batch.pass_s) untraced)) );
        ( "trace.overhead_job_ms_p50",
          Util.percentile 0.5 (call_ms traced)
          -. Util.percentile 0.5 (call_ms untraced) );
      ]
      @ List.map
          (fun k -> (k, counter k))
          [
            "hom.candidates_scanned"; "hom.unify_attempts"; "hom.backtracks";
            "plan.compilations"; "tgd.triggers_considered"; "tgd.firings";
            "tgd.head_checks"; "graph.triggers_considered"; "graph.pair_checks";
            "graph.firings"; "arena.facts";
          ]
    end
  in
  (attempted, failed, values)

(* --- daemon workloads --------------------------------------------------- *)

let daemon_workload a ~mutate =
  let clients = Util.nproc () and workers = Util.nproc () in
  (* daemon-repeat preempts its divergent chases every 2 stages; on
     daemon-mutate a slice may take a whole edit, because a held-instance
     edit cut by the quantum is reported done before its continuation
     has run (see README) *)
  let quantum = if mutate then Daemon.mutate_max_stages else 2 in
  let cache = if mutate then 0 else 512 in
  let dir i =
    Filename.concat Util.run_dir (Printf.sprintf "d%d-%d" (Unix.getpid ()) i)
  in
  let current = ref None in
  at_exit (fun () -> Option.iter Daemon.stop !current);
  (* set-up: inputs built and the daemon answering ping, nine times *)
  let launch i =
    let t0 = Util.now () in
    let elems = if mutate then Daemon.path_elements () else [||] in
    let p = Daemon.spawn ~exe:a.exe ~dir:(dir i) ~workers ~quantum ~cache in
    current := Some p;
    (Util.now () -. t0, elems, p)
  in
  let setups =
    List.init 8 (fun i ->
        let s, _, p = launch i in
        Daemon.stop p;
        current := None;
        Util.rm_rf (dir i);
        s)
  in
  let s, elems, p = launch 8 in
  let setups = s :: setups in
  (* a daemon that stops answering would block the clients for good:
     past the watchdog's limit it is killed, the clients' jobs fail and
     the run ends within its time *)
  let finished = Atomic.make false in
  let watchdog =
    Domain.spawn (fun () ->
        let limit = Util.now () +. a.seconds +. 90. in
        while (not (Atomic.get finished)) && Util.now () < limit do
          Unix.sleepf 0.2
        done;
        if not (Atomic.get finished) then
          try Unix.kill p.Daemon.pid Sys.sigkill with Unix.Unix_error _ -> ())
  in
  let gens =
    List.init clients (fun client ->
        { Daemon.seed = a.seed; client; clients; history = [] })
  in
  let next_round g =
    if mutate then Daemon.mutate_round ~elems g else Daemon.repeat_round g
  in
  let t_start = Util.now () in
  let until round =
    match a.rounds with
    | Some n -> round >= n
    | None -> Util.now () -. t_start >= a.seconds
  in
  let results =
    List.map
      (fun g ->
        Domain.spawn (fun () ->
            Daemon.run_client ~socket:p.Daemon.socket ~trace:a.trace ~until
              ~next_round:(next_round g)
              ~client:g.Daemon.client))
      gens
    |> List.map Domain.join
  in
  let t_end = Util.now () in
  Atomic.set finished true;
  Domain.join watchdog;
  let rss_kb = Util.proc_status_kb p.Daemon.pid "VmHWM" in
  let stats =
    match Serve.Client.connect ~socket:p.Daemon.socket () with
    | Error _ -> J.Obj []
    | Ok c ->
        Fun.protect
          ~finally:(fun () -> Serve.Client.close c)
          (fun () ->
            Result.value ~default:(J.Obj []) (Serve.Client.stats c))
  in
  let store_bytes, store_files = Util.dir_usage p.Daemon.store in
  Daemon.stop p;
  current := None;
  let gc k = Option.value ~default:nan (Daemon.gc_stat p.Daemon.log k) in
  let alloc_words = gc "allocated_words" and top_heap = gc "top_heap_words" in
  Util.rm_rf (dir 8);
  (* checks, after the clock has stopped *)
  let failed_records, edit_times =
    if mutate then
      let fs, ts =
        List.split
          (List.mapi
             (fun client r -> Daemon.check_mutate ~client r.Daemon.c_records)
             results)
      in
      (List.concat fs, List.concat ts)
    else
      ( Daemon.check_repeat ~domains:(Util.nproc ())
          (List.concat_map (fun r -> r.Daemon.c_records) results),
        [] )
  in
  List.iter (fun (_, ps) -> List.iter prerr_endline ps) failed_records;
  let failed = List.length failed_records in
  let records = List.concat_map (fun r -> r.Daemon.c_records) results in
  let attempted = List.length records in
  let rounds = List.concat_map (fun r -> r.Daemon.c_rounds) results in
  info "determinism"
    (J.Obj
       [
         ( "jobs_md5",
           J.List
             (List.map
                (fun r ->
                  J.String
                    (Util.md5_hex
                       (String.concat "\n"
                          (List.map
                             (fun (x : Daemon.record) ->
                               J.to_string (Daemon.submit_frame x.Daemon.item.Daemon.spec))
                             r.Daemon.c_records))))
                results) );
         ("jobs", J.Int attempted);
       ]);
  let lat_ms rs = List.map (fun (r : Daemon.record) -> ms r.Daemon.latency_s) rs in
  info "samples"
    (J.Obj
       [
         ("setup_s", J.Int (List.length setups));
         ("batch_s", J.Int (List.length rounds));
         ("job_ms", J.Int attempted);
       ]);
  let values =
    if not a.trace then
      [
        ("setup_s", Util.median setups);
        ("batch_s", Util.median rounds);
        ("alloc_mwords", alloc_words /. float (List.length rounds) /. 1e6);
        ("heap_peak_mb", mb_of_words top_heap);
        ("jobs_per_s", float attempted /. (t_end -. t_start));
        ("job_ms_p50", Util.percentile 0.5 (lat_ms records));
        ("job_ms_p95", Util.percentile 0.95 (lat_ms records));
        ( "rss_peak_mb",
          Option.fold ~none:nan ~some:(fun kb -> float kb /. 1000.) rss_kb );
      ]
    else begin
      write_trace a (Span.spans (List.map (fun r -> r.Daemon.c_spans) results));
      let wall_s (r : Daemon.record) =
        Option.value ~default:0.
          (Option.bind r.Daemon.reply (J.mem_float "wall_s"))
      in
      let cls c = List.filter (fun (r : Daemon.record) -> r.Daemon.item.Daemon.cls = c) records in
      let p50_of c = Util.percentile 0.5 (lat_ms (cls c)) in
      let cache k =
        float
          (Option.value ~default:0
             (Option.bind (J.member "cache" stats) (J.mem_int k)))
      in
      let frames = List.concat_map (fun r -> r.Daemon.c_frames) results in
      let json_us =
        let t0 = Util.now () in
        List.iter
          (fun f -> ignore (J.parse (J.to_string f)))
          frames;
        (Util.now () -. t0) *. 1e6 /. float (max 1 (List.length frames))
      in
      let edits =
        List.filter_map
          (fun (r : Daemon.record) ->
            if r.Daemon.item.Daemon.cls = "edit" then
              Option.bind r.Daemon.reply (J.member "result")
            else None)
          records
      in
      let per_edit k =
        Util.mean
          (List.map
             (fun res -> float (Option.value ~default:0 (J.mem_int k res)))
             edits)
      in
      let traced, untraced =
        List.partition (fun (r : Daemon.record) -> r.Daemon.traced) records
      in
      let round_s on =
        Util.median
          (List.concat_map
             (fun r ->
               List.filteri (fun i _ -> (i mod 2 = 0) = on) r.Daemon.c_rounds)
             results)
      in
      [
        ("trace.overhead_batch_ms", ms (round_s true -. round_s false));
        ( "trace.overhead_job_ms_p50",
          Util.percentile 0.5 (lat_ms traced)
          -. Util.percentile 0.5 (lat_ms untraced) );
        ( "serve.submit_ms_p50",
          Util.percentile 0.5
            (List.map (fun (r : Daemon.record) -> ms r.Daemon.submit_s) records) );
        ("serve.run_ms_p50", Util.percentile 0.5 (List.map (fun r -> ms (wall_s r)) records));
        ( "serve.queue_ms_p50",
          Util.percentile 0.5
            (List.map
               (fun (r : Daemon.record) -> ms (r.Daemon.latency_s -. wall_s r))
               records) );
        ("serve.slices", float (Option.value ~default:0 (J.mem_int "slices" stats)));
        ( "serve.sched_idle_ms",
          float
            (Option.value ~default:0
               (Option.bind (J.member "sched" stats) (J.mem_int "idle_ms"))) );
        ("serve.cache_hits", cache "hits");
        ("serve.cache_misses", cache "misses");
        ("serve.cache_coalesced", cache "coalesced");
        ( "serve.cache_hit_ratio",
          let total = cache "hits" +. cache "misses" +. cache "coalesced" in
          if total = 0. then 0. else cache "hits" /. total );
        ("serve.store_bytes", float store_bytes);
        ("serve.store_files", float store_files);
        ("serve.json_us", json_us);
        ("serve.chase_ms_p50", p50_of "chase");
        ("serve.divergent_ms_p50", p50_of "divergent");
        ("serve.worm_ms_p50", p50_of "worm");
        ("serve.determinacy_ms_p50", p50_of "determinacy");
        ("serve.hit_ms_p50", p50_of "hit");
        ("serve.edit_ms_p50", p50_of "edit");
        ("serve.read_ms_p50", p50_of "read");
        ("tgd.maint_edit_ms", ms (Util.median edit_times));
        ("tgd.maint_killed", per_edit "killed");
        ("tgd.maint_refired", per_edit "refired");
      ]
    end
  in
  (attempted, failed, values)

(* --- entry point -------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload paper-batch|daemon-repeat|daemon-mutate --seed N \
     --seconds S --trace 0|1 --daemon-exe PATH [--rounds R]\n\
    \       main.exe --selftest";
  exit 2

let parse argv =
  let get k =
    let rec go = function
      | x :: v :: _ when x = k -> Some v
      | _ :: rest -> go rest
      | [] -> None
    in
    go argv
  in
  let req k = match get k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (req k) with Some v -> v | None -> usage () in
  {
    workload = req "--workload";
    seed = int "--seed";
    seconds = float_of_int (int "--seconds");
    trace = (match req "--trace" with "0" -> false | "1" -> true | _ -> usage ());
    rounds = Option.bind (get "--rounds") int_of_string_opt;
    exe = Option.value ~default:"" (get "--daemon-exe");
    commit = Option.value ~default:"unknown" (get "--commit");
    source_md5 = Option.value ~default:"unknown" (get "--source-md5");
  }

let () =
  let argv = List.tl (Array.to_list Sys.argv) in
  if argv = [ "--selftest" ] then exit (Selftest.run ())
  else begin
    let a = parse argv in
    Util.mkdir_p Util.run_dir;
    let daemon = a.workload <> "paper-batch" in
    if daemon && not (Sys.file_exists a.exe) then begin
      prerr_endline ("daemon executable not found: " ^ a.exe);
      exit 2
    end;
    info "header"
      (J.Obj
         [
           ("workload", J.String a.workload);
           ("seed", J.Int a.seed);
           ("seconds", J.Float a.seconds);
           ("trace", J.Bool a.trace);
           ("nproc", J.Int (Util.nproc ()));
           ("clients", J.Int (if daemon then Util.nproc () else 1));
           ("daemon_workers", J.Int (if daemon then Util.nproc () else 0));
           ("ocaml", J.String Sys.ocaml_version);
           ("commit", J.String a.commit);
           ("source_md5", J.String a.source_md5);
         ]);
    let attempted, failed, values =
      match a.workload with
      | "paper-batch" -> paper_batch a
      | "daemon-repeat" -> daemon_workload a ~mutate:false
      | "daemon-mutate" -> daemon_workload a ~mutate:true
      | w ->
          prerr_endline ("unknown workload " ^ w);
          exit 2
    in
    print_result ~attempted ~failed ~trace:a.trace values
  end
