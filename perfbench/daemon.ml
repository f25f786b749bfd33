(* daemon-repeat and daemon-mutate: a closed loop of [nproc] client
   connections against a [redspider serve] child process running
   [nproc] workers.  Each client waits for a job's terminal reply before
   it submits the next, the way [redspider client] does, so a slow daemon
   receives less load instead of a growing backlog.

   Jobs come in rounds: every round of a workload has the same make-up
   of job classes, the seed picks their parameters and order.  A client
   stops at the first round boundary after the run's time is up, so
   every run attempts whole rounds. *)

open Core
module J = Util.J
module Job = Serve.Job

(* --- the daemon child process ------------------------------------------ *)

type proc = { pid : int; socket : string; store : string; log : string }

let ping socket =
  match Serve.Client.connect ~socket () with
  | Error _ -> false
  | Ok c ->
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () -> Result.is_ok (Serve.Client.ping c))

let alive pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error _ -> false

(* Launch [exe serve] and wait until it answers [ping].  The child's GC
   statistics at exit (OCAMLRUNPARAM v=0x400) land in its log. *)
let spawn ~exe ~dir ~workers ~quantum ~cache =
  Util.rm_rf dir;
  Util.mkdir_p dir;
  let socket = Filename.concat dir "d.sock"
  and store = Filename.concat dir "store"
  and log = Filename.concat dir "daemon.log" in
  let env =
    Array.append [| "OCAMLRUNPARAM=v=0x400" |]
      (Array.of_list
         (List.filter
            (fun kv -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" kv))
            (Array.to_list (Unix.environment ()))))
  in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process_env exe
      [|
        exe; "serve"; "--socket"; socket; "--store"; store; "--workers";
        string_of_int workers; "--quantum"; string_of_int quantum;
        "--cache-capacity"; string_of_int cache;
      |]
      env null out out
  in
  Unix.close out;
  Unix.close null;
  let p = { pid; socket; store; log } in
  let deadline = Util.now () +. 60. in
  let rec await () =
    if ping socket then p
    else if not (alive pid) then failwith "daemon exited before answering ping"
    else if Util.now () > deadline then begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      failwith "daemon did not answer ping within 60 s"
    end
    else begin
      (* fine polling: set-up takes a few milliseconds *)
      Unix.sleepf 0.0002;
      await ()
    end
  in
  await ()

(* Drain the daemon and reap it; SIGKILL if it has not exited in 30 s. *)
let stop p =
  (match Serve.Client.connect ~socket:p.socket () with
  | Ok c ->
      ignore (Serve.Client.drain c);
      Serve.Client.close c
  | Error _ -> ( try Unix.kill p.pid Sys.sigterm with Unix.Unix_error _ -> ()));
  let deadline = Util.now () +. 30. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] p.pid with
    | 0, _ when Util.now () < deadline ->
        Unix.sleepf 0.005;
        reap ()
    | 0, _ ->
        (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] p.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap ()

(* [key: value] lines of the child's exit GC statistics. *)
let gc_stat log key =
  match open_in log with
  | exception Sys_error _ -> None
  | ic ->
      let prefix = key ^ ": " in
      let rec scan found =
        match input_line ic with
        | exception End_of_file -> found
        | l when String.starts_with ~prefix l ->
            scan
              (float_of_string_opt
                 (String.sub l (String.length prefix)
                    (String.length l - String.length prefix)))
        | _ -> scan found
      in
      let v = scan None in
      close_in ic;
      v

(* --- job generation ---------------------------------------------------- *)

type item = { cls : string; spec : Job.spec }

(* A fresh job gets a relation of its own ("E<client>r<round>k<slot>"),
   so it never shares a cache key with an earlier job while doing the
   same work: cache keys and digests see relation names, not view names. *)
let fresh_rel tag = "E" ^ tag

let views_of ~tag lens =
  List.mapi
    (fun i k ->
      let name = Printf.sprintf "v%d" i in
      (name, Util.path_rule ~rel:(fresh_rel tag) name k))
    lens

(* (view lengths, q0 length, stages): chases of about 10 ms each
   in-process — dearer than a determinacy job, cheaper than a worm job,
   and close enough to each other that the median job does not depend on
   which of them a seed draws *)
let chase_family = [ ([ 2; 3 ], 6, 4); ([ 3; 4 ], 7, 4); ([ 3; 4 ], 9, 3) ]

let det_family =
  [
    ([ 2; 3 ], 5); ([ 2; 3 ], 4); ([ 2 ], 1); ([ 2 ], 4); ([ 3 ], 6);
    ([ 2; 3 ], 1); ([ 1 ], 3); ([ 2; 4 ], 6); ([ 3; 4 ], 7);
  ]

(* machines that never halt, so a worm job runs all of its steps *)
let worm_family = [ "creeper"; "zigzag"; "right-forever" ]

(* The make-up of one daemon-repeat round: 12 jobs, a quarter of them
   resubmissions of one of the client's last [window] fresh specs.  The
   counts place the median job in the middle of the short-chase block
   (as many cheaper jobs as dearer ones) and the 95th percentile inside
   the dearest, so neither sits on the edge between two job classes. *)
let repeat_slots =
  [ `Resub; `Resub; `Resub; `Det; `Short; `Short; `Short; `Short; `Worm;
    `Worm; `Worm; `Divergent ]

let window = 24
let divergent_stages = 7

type gen = {
  seed : int;
  client : int;
  clients : int;
  mutable history : item list; (* fresh items, newest first *)
}

let repeat_round g round =
  let st = Util.rng g.seed ((g.client * 1_000_003) + round) in
  let slots = Array.of_list (Util.shuffle st repeat_slots) in
  (* a round's first job is fresh, so round 0 has history to resubmit *)
  (match Array.find_index (fun s -> s <> `Resub) slots with
  | Some i ->
      let s0 = slots.(0) in
      slots.(0) <- slots.(i);
      slots.(i) <- s0
  | None -> ());
  let slots = Array.to_list slots in
  let worms = ref 0 in
  List.mapi
    (fun k slot ->
      let tag = Printf.sprintf "c%dr%dk%d" g.client round k in
      let fresh cls spec =
        let it = { cls; spec } in
        g.history <- it :: g.history;
        it
      in
      match slot with
      | `Short ->
          let lens, n, max_stages = Util.pick st chase_family in
          fresh "chase"
            (Job.Chase
               {
                 views = views_of ~tag lens;
                 q0 = Util.path_rule ~rel:(fresh_rel tag) "q" n;
                 max_stages;
                 engine = `Seminaive;
               })
      | `Det ->
          let lens, n = Util.pick st det_family in
          fresh "determinacy"
            (Job.Determinacy
               {
                 views = views_of ~tag lens;
                 q0 = Util.path_rule ~rel:(fresh_rel tag) "q" n;
                 max_stages = 8;
                 engine = `Seminaive;
               })
      | `Worm ->
          (* A fresh key needs unused steps.  Scattering a unique index
             over [8000, 16001) keeps the key new for the first 8001 worm
             jobs without the cost drifting as the run goes on. *)
          let unique = (((round * 3) + !worms) * g.clients) + g.client in
          incr worms;
          let steps = 8000 + (unique * 7919 mod 8001) in
          fresh "worm"
            (Job.Worm { machine = Util.pick st worm_family; steps })
      | `Divergent ->
          fresh "divergent"
            (Job.Chase
               {
                 views = views_of ~tag [ 2; 3 ];
                 q0 = Util.path_rule ~rel:(fresh_rel tag) "q" 5;
                 max_stages = divergent_stages;
                 engine = `Seminaive;
               })
      | `Resub ->
          let recent = List.filteri (fun i _ -> i < window) g.history in
          let it = Util.pick st recent in
          { it with cls = "hit" })
    slots

(* daemon-mutate: each client owns one held instance, green(P_64) under
   T_Q of one view, and edits it with single-fact adds and retracts.  A
   round adds two forward chords, cuts and restores a path edge and
   removes both chords again, so the instance's fact set is the same at
   every round boundary while its journal keeps growing; the first, the
   fourth and the last edit are each followed by a read.  Three reads
   below two chord adds (the cheapest edits) and four dearer edits put
   the median job inside the chord-add block. *)
let mutate_views = [ ("p2", Util.path_rule "p2" 2) ]
let mutate_q0 = Util.path_rule "q" 64
let mutate_max_stages = 64

(* The path's elements in order, as the daemon allocates them. *)
let path_elements () =
  match Job.parse_rules mutate_views mutate_q0 with
  | Error m -> failwith m
  | Ok (_, q0) ->
      let d, tuple = Tgd.Greenred.green_canonical q0 in
      let next = Hashtbl.create 32 in
      Relational.Structure.iter_facts d (fun f ->
          let a = Relational.Fact.args f in
          Hashtbl.replace next a.(0) a.(1));
      let rec walk v acc =
        match Hashtbl.find_opt next v with
        | Some w -> walk w (w :: acc)
        | None -> List.rev acc
      in
      Array.of_list (walk tuple.(0) [ tuple.(0) ])

let mutate_round ~elems g round =
  let st = Util.rng g.seed ((g.client * 1_000_003) + round) in
  let n = Array.length elems in
  let chord () =
    let i = Random.State.int st (n - 2) in
    (i, i + 2 + Random.State.int st (n - i - 2))
  in
  let a = chord () in
  let c =
    match chord () with
    | c when c = a -> (fst a, if snd a + 1 < n then snd a + 1 else snd a - 1)
    | c -> c
  in
  let k = Random.State.int st (n - 1) in
  let edge add (x, y) = { Job.add; rel = "E"; args = [ elems.(x); elems.(y) ] } in
  let job cls ops =
    {
      cls;
      spec =
        Job.Mutate
          {
            instance = Printf.sprintf "inst%d" g.client;
            views = mutate_views;
            q0 = mutate_q0;
            ops;
            max_stages = mutate_max_stages;
            engine = `Seminaive;
          };
    }
  in
  let edit add e = job "edit" [ edge add e ] and read = job "read" [] in
  [
    edit true a; read; edit false (k, k + 1); edit true c;
    edit true (k, k + 1); read; edit false a; edit false c; read;
  ]

(* --- the closed loop --------------------------------------------------- *)

type record = {
  item : item;
  id : string;
  submit_s : float; (* submit round trip *)
  latency_s : float; (* submit to terminal reply *)
  reply : J.t option; (* the terminal job object *)
  error : string option; (* refused submit or lost connection *)
  traced : bool; (* submitted in a traced round *)
}

type client_result = {
  c_records : record list; (* in submission order *)
  c_rounds : float list; (* wall time of each round *)
  c_frames : J.t list; (* the wire frames, for the codec replay *)
  c_spans : Span.recorder;
}

let submit_frame spec = Serve.Client.op "submit" [ ("spec", Job.spec_to_json spec) ]

let run_client ~socket ~trace ~until ~next_round ~client =
  let rec_ = Span.recorder ~on:trace (client + 1) in
  let conn =
    match Serve.Client.connect_retry ~deadline_s:10. ~socket () with
    | Ok c -> c
    | Error m -> failwith ("client connect: " ^ m)
  in
  let conn = ref conn in
  let records = ref [] and rounds = ref [] and frames = ref [] in
  let seq = ref 0 in
  let one it =
    let job = Printf.sprintf "c%d#%d" client !seq in
    incr seq;
    let t0 = Util.now () in
    let outcome =
      Span.with_span rec_ ~job ("job." ^ it.cls) (fun () ->
          match
            Span.with_span rec_ ~job "serve.submit" (fun () ->
                Serve.Client.submit !conn it.spec)
          with
          | Error m -> (Util.now (), "", Error m)
          | Ok id ->
              let t1 = Util.now () in
              ( t1,
                id,
                Span.with_span rec_ ~job "serve.wait" (fun () ->
                    Serve.Client.wait_terminal ~poll_s:30. !conn id) ))
    in
    let t2 = Util.now () in
    let t1, id, reply = outcome in
    frames := submit_frame it.spec :: !frames;
    let r =
      match reply with
      | Ok j ->
          frames :=
            Serve.Client.op "wait" [ ("id", J.String id) ]
            :: J.Obj [ ("ok", J.Bool true); ("job", j) ]
            :: !frames;
          { item = it; id; submit_s = t1 -. t0; latency_s = t2 -. t0;
            reply = Some j; error = None; traced = rec_.Span.on }
      | Error m ->
          (* the connection may be gone: reopen it and go on *)
          Serve.Client.close !conn;
          (match Serve.Client.connect_retry ~deadline_s:10. ~socket () with
          | Ok c -> conn := c
          | Error m' -> failwith ("client reconnect: " ^ m'));
          { item = it; id; submit_s = t1 -. t0; latency_s = t2 -. t0;
            reply = None; error = Some m; traced = rec_.Span.on }
    in
    records := r :: !records
  in
  let rec loop round =
    if not (until round) then begin
      (* a traced run alternates traced and untraced rounds, so the
         tracing overhead is measured in the same run *)
      rec_.Span.on <- trace && round mod 2 = 0;
      let r0 = Util.now () in
      Span.with_span rec_ ~job:(Printf.sprintf "c%d/r%d" client round) "round"
        (fun () -> List.iter one (next_round round));
      rounds := (Util.now () -. r0) :: !rounds;
      loop (round + 1)
    end
  in
  Fun.protect
    ~finally:(fun () -> Serve.Client.close !conn)
    (fun () -> loop 0);
  {
    c_records = List.rev !records;
    c_rounds = List.rev !rounds;
    c_frames = List.rev !frames;
    c_spans = rec_;
  }

(* --- reference computations -------------------------------------------- *)

(* The digest an independent in-process computation gives for a spec:
   the [`Stage] engine for chases and determinacy, the simulator for
   worms. *)
let reference_digest spec =
  match spec with
  | Job.Chase { views; q0; max_stages; _ } -> (
      match Job.parse_rules views q0 with
      | Error m -> "unparsable: " ^ m
      | Ok (views, q0) ->
          let d = fst (Tgd.Greenred.green_canonical q0) in
          ignore
            (Tgd.Chase.run ~engine:`Stage ~max_stages (Tgd.Dep.t_q views) d);
          Relational.Structure.digest_hex d)
  | Job.Determinacy { views; q0; max_stages; _ } -> (
      match Job.parse_rules views q0 with
      | Error m -> "unparsable: " ^ m
      | Ok (views, q0) ->
          let inst = Determinacy.Instance.make ~views ~q0 in
          let v x = Format.asprintf "%a" Determinacy.Solver.pp_verdict x in
          Util.md5_hex
            (v (Determinacy.Solver.unrestricted ~engine:`Stage ~max_stages inst)
            ^ "|"
            ^ v (Determinacy.Solver.finite ~engine:`Stage inst)))
  | Job.Worm { machine; steps } -> (
      match Serve.Zoo_table.oracle machine with
      | None -> "unknown machine " ^ machine
      | Some o ->
          let tr = Rainworm.Sim.creep ~max_steps:steps o in
          Util.md5_hex
            (Format.asprintf "%a" Rainworm.Sym.pp_word
               (Rainworm.Sim.final_config tr)))
  | Job.Audit _ | Job.Mutate _ -> "no reference"

let result_digest j =
  Option.bind (J.member "result" j) (J.mem_str "digest")

(* Check every repeat job: done, digest equal to the reference, and a
   resubmission answered with its first submission's digest.  Returns
   the failed records with their reasons. *)
let check_repeat ~domains records =
  let key (r : record) = J.to_string (Job.spec_to_json r.item.spec) in
  (* the references of all distinct specs, computed on [domains] domains
     once the daemon has stopped *)
  let distinct = Hashtbl.create 1024 in
  List.iter (fun r -> Hashtbl.replace distinct (key r) r.item.spec) records;
  let specs = Array.of_list (Hashtbl.fold (fun k s acc -> (k, s) :: acc) distinct []) in
  let refs = Hashtbl.create (Array.length specs) in
  List.init domains (fun d ->
      Domain.spawn (fun () ->
          List.filter_map
            (fun i ->
              if i mod domains = d then
                Some (fst specs.(i), reference_digest (snd specs.(i)))
              else None)
            (List.init (Array.length specs) Fun.id)))
  |> List.iter (fun dom ->
         List.iter (fun (k, d) -> Hashtbl.replace refs k d) (Domain.join dom));
  let first = Hashtbl.create 1024 in
  List.filter_map
    (fun r ->
      match r.error, r.reply with
      | Some m, _ -> Some (r, [ "submit refused: " ^ m ])
      | None, None -> Some (r, [ "no reply" ])
      | None, Some j -> (
          let key = key r in
          let problems =
            Checks.job ~what:(r.id ^ " " ^ r.item.cls)
              ~expected:(Hashtbl.find refs key) j
            @
            match (Hashtbl.find_opt first key, result_digest j) with
            | Some d0, Some d when d <> d0 ->
                [ Printf.sprintf "%s: resubmission digest %s, first %s" r.id d d0 ]
            | None, Some d ->
                Hashtbl.replace first key d;
                []
            | _ -> []
          in
          match problems with [] -> None | ps -> Some (r, ps)))
    records

(* Replay a client's edits, in order, through an in-process [Maint]
   replica: every reply's digest (and an edit's killed/refired) must
   match the replica's after the same prefix.  The final replica must
   model T_Q and be hom-equivalent to a from-scratch chase of the edited
   base.  Returns the failed records and the replica's per-edit
   [apply_edit] times. *)
let check_mutate ~client records =
  match Job.parse_rules mutate_views mutate_q0 with
  | Error m -> (List.map (fun r -> (r, [ m ])) records, [])
  | Ok (views, q0) ->
      let deps = Tgd.Dep.t_q views in
      let m, _ =
        Tgd.Chase.Maint.create ~engine:`Seminaive deps
          (fst (Tgd.Greenred.green_canonical q0))
      in
      let base = fst (Tgd.Greenred.green_canonical q0) in
      let edit_times = ref [] in
      let op_fact (o : Job.edit_op) =
        let sym =
          Relational.Symbol.make ~color:Relational.Symbol.Green o.Job.rel
            (List.length o.Job.args)
        in
        Relational.Fact.make sym (Array.of_list o.Job.args)
      in
      let failed =
        List.filter_map
          (fun r ->
            let ops =
              match r.item.spec with Job.Mutate { ops; _ } -> ops | _ -> []
            in
            let stats =
              if ops = [] then None
              else begin
                let eops =
                  List.map
                    (fun o ->
                      let f = op_fact o in
                      if o.Job.add then begin
                        ignore (Relational.Structure.add_fact base f);
                        Tgd.Chase.Maint.Insert f
                      end
                      else begin
                        ignore (Relational.Structure.retract_fact base f);
                        Tgd.Chase.Maint.Retract f
                      end)
                    ops
                in
                let t0 = Util.now () in
                let es = Tgd.Chase.Maint.apply_edit m eops in
                edit_times := (Util.now () -. t0) :: !edit_times;
                Some es
              end
            in
            match r.error, r.reply with
            | Some e, _ -> Some (r, [ "submit refused: " ^ e ])
            | None, None -> Some (r, [ "no reply" ])
            | None, Some j -> (
                let what = Printf.sprintf "%s %s (client %d)" r.id r.item.cls client in
                let expected =
                  Relational.Structure.digest_hex (Tgd.Chase.Maint.structure m)
                in
                let counts =
                  match stats with
                  | None -> []
                  | Some es ->
                      let res = J.member "result" j in
                      let get k = Option.bind res (J.mem_int k) in
                      if
                        get "killed" = Some es.Tgd.Chase.Maint.e_killed
                        && get "refired" = Some es.Tgd.Chase.Maint.e_refired
                      then []
                      else [ what ^ ": killed/refired differ from the replica" ]
                in
                match Checks.job ~what ~expected j @ counts with
                | [] -> None
                | ps -> Some (r, ps)))
          records
      in
      let final =
        Checks.maint_replica
          ~what:(Printf.sprintf "replica of client %d" client)
          deps m ~base
      in
      (* a failed final check fails the client's last operation *)
      let failed =
        match (final, List.rev records) with
        | [], _ | _, [] -> failed
        | ps, last :: _ ->
            if List.exists (fun (r, _) -> r == last) failed then failed
            else failed @ [ (last, ps) ]
      in
      (failed, List.rev !edit_times)
