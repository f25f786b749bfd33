(* paper-batch: repeated passes over a fixed batch of the paper's
   constructions, called in-process through their public entry points on
   one thread, with no daemon.  The seed fixes the call order of every
   pass and the instances that certify determinacy verdicts; the batch
   itself is the same for every seed, so every pass does the same work.

   The two chases (E10's T_Q and the T□ grid) are weighted to do most of
   each pass (see [calls]). *)

open Core
module S = Relational.Structure

type call = {
  layer : string; (* the layer's span name *)
  run : unit -> unit -> string list; (* the call; returns its deferred check *)
}

let path_query k = Cq.Parse.query_exn (Util.path_rule "q" k)

let grids = [ (8, 8); (8, 9); (10, 10) ]
let e10_stages = [ 7; 8 ]
let creep_steps = 10_000

(* Everything a pass consumes, built once per run. *)
type inputs = {
  e10_deps : Tgd.Dep.t list;
  e10_q0 : Cq.Query.t;
  det_yes : Determinacy.Instance.t; (* {P2,P3} -> P5: determined *)
  det_no : Determinacy.Instance.t; (* {P2} -> E: not determined *)
  halting : Rainworm.Machine.t; (* the smallest halting zoo machine *)
}

let build_inputs () =
  {
    e10_deps = Tgd.Dep.t_q [ ("p2", path_query 2); ("p3", path_query 3) ];
    e10_q0 = path_query 5;
    det_yes =
      Determinacy.Instance.make
        ~views:[ ("p2", path_query 2); ("p3", path_query 3) ]
        ~q0:(path_query 5);
    det_no =
      Determinacy.Instance.make ~views:[ ("p2", path_query 2) ] ~q0:(path_query 1);
    halting = Rainworm.Zoo.stillborn;
  }

(* Reference results from code apart from the engines under test: the
   [`Stage] engine for both chases. *)
type references = {
  grid_ref : ((int * int) * string) list;
  e10_ref : (int * string) list;
  samples : S.t list; (* seeded instances for the rewriting check *)
}

let references ~seed inp =
  let st = Util.rng seed 1 in
  {
    grid_ref =
      List.map
        (fun (t, t') ->
          let _, _, g =
            Separating.Theorem14.collision_outcome ~engine:`Stage ~t ~t' ()
          in
          ((t, t'), Greengraph.Graph.digest_hex g))
        grids;
    e10_ref =
      List.map
        (fun k ->
          let d = fst (Tgd.Greenred.green_canonical inp.e10_q0) in
          ignore (Tgd.Chase.run ~engine:`Stage ~max_stages:k inp.e10_deps d);
          (k, S.digest_hex d))
        e10_stages;
    samples =
      List.init 6 (fun _ ->
          Checks.random_digraph st
            ~elems:(4 + Random.State.int st 5)
            ~edges:(6 + Random.State.int st 10));
  }

let calls inp refs =
  let grid (t, t') =
    let what = Printf.sprintf "collision_outcome grid(%d,%d)" t t' in
    {
      layer = "greengraph.chase";
      run =
        (fun () ->
          let out = Separating.Theorem14.collision_outcome ~t ~t' () in
          fun () ->
            Checks.grid ~what ~t ~t'
              ~reference:(List.assoc (t, t') refs.grid_ref)
              out);
    }
  in
  let e10 k =
    let what = Printf.sprintf "Chase.run E10 stages=%d" k in
    {
      layer = "tgd.chase";
      run =
        (fun () ->
          let d = fst (Tgd.Greenred.green_canonical inp.e10_q0) in
          let stats = Tgd.Chase.run ~max_stages:k inp.e10_deps d in
          fun () ->
            Checks.tgd_chase ~what ~reference:(List.assoc k refs.e10_ref)
              ~max_stages:k stats d);
    }
  in
  (* both solvers on the determined and the not-determined instance *)
  let solve =
    {
      layer = "determinacy.solve";
      run =
        (fun () ->
          let verdicts =
            List.map
              (fun inst ->
                ( Determinacy.Solver.unrestricted inst,
                  Determinacy.Solver.finite inst ))
              [ inp.det_yes; inp.det_no ]
          in
          fun () ->
            match verdicts with
            | [ (yu, yf); (nu, nf) ] ->
                let yes ~what v =
                  Checks.determined ~what inp.det_yes ~samples:refs.samples v
                and no ~what v = Checks.not_determined ~what inp.det_no v in
                yes ~what:"{P2,P3}->P5 unrestricted" yu
                @ yes ~what:"{P2,P3}->P5 finite" yf
                @ no ~what:"{P2}->E unrestricted" nu
                @ no ~what:"{P2}->E finite" nf
            | _ -> [ "solver: wrong verdict count" ]);
    }
  in
  (* E10 at 7 stages three times and grid(10,10) twice: the weights that
     make the chases most of a pass, and that put the median call inside
     one block of equal calls rather than at the edge between two *)
  [
    solve;
    grid (8, 8); grid (8, 9); e10 7; e10 7; e10 7; grid (10, 10);
    grid (10, 10); e10 8;
  ]
  @ [
      {
        layer = "reduction.pipeline";
        run =
          (fun () ->
            let p = Reduction.Pipeline.of_machine inp.halting in
            fun () ->
              Checks.reduction_shape ~what:"Pipeline.of_machine stillborn"
                inp.halting (Reduction.Pipeline.shape p));
      };
      {
        layer = "reduction.finite_model";
        run =
          (fun () ->
            let out = Reduction.Finite_model.of_halting_machine inp.halting in
            fun () ->
              Checks.finite_model ~what:"Finite_model stillborn" out);
      };
      {
        layer = "rainworm.creep";
        run =
          (fun () ->
            let tr =
              Rainworm.Sim.creep_machine ~max_steps:creep_steps
                Rainworm.Zoo.eternal_creeper
            in
            fun () -> Checks.creeper ~what:"creeper" ~steps:creep_steps tr);
      };
    ]

(* One measured call of a pass. *)
type sample = {
  layer : string;
  wall_s : float;
  alloc_words : float;
  counters : (string * int) list; (* Obs counter deltas (traced passes) *)
}

type pass = {
  traced : bool;
  pass_s : float;
  pass_words : float;
  minor_gcs : int;
  major_gcs : int;
  samples : sample list;
}

(* Run one pass in the seeded order; checks run after the pass clock
   stops, so they never count as the program's time.  Returns the pass
   and each call's problems, in call order. *)
let run_pass ~rec_ ~traced ~order ~pass_no =
  Obs.set_metrics traced;
  let gc0 = Gc.quick_stat () in
  let w0 = Util.allocated_words () in
  let t0 = Util.now () in
  let job = Printf.sprintf "pass%d" pass_no in
  let samples, checks =
    Span.with_span rec_ ~job "pass" (fun () ->
        List.split
          (List.map
             (fun (c : call) ->
               Span.with_span rec_ ~job c.layer (fun () ->
                   let before = if traced then Obs.Metrics.snapshot () else [] in
                   let cw0 = Util.allocated_words () in
                   let ct0 = Util.now () in
                   let check = c.run () in
                   let ct1 = Util.now () in
                   let cw1 = Util.allocated_words () in
                   let counters =
                     if traced then Obs.Metrics.diff before (Obs.Metrics.snapshot ())
                     else []
                   in
                   ( {
                       layer = c.layer;
                       wall_s = ct1 -. ct0;
                       alloc_words = cw1 -. cw0;
                       counters;
                     },
                     check )))
             order))
  in
  let t1 = Util.now () in
  let w1 = Util.allocated_words () in
  let gc1 = Gc.quick_stat () in
  Obs.set_metrics false;
  let problems = List.map (fun check -> check ()) checks in
  ( {
      traced;
      pass_s = t1 -. t0;
      pass_words = w1 -. w0;
      minor_gcs = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
      major_gcs = gc1.Gc.major_collections - gc0.Gc.major_collections;
      samples;
    },
    problems )
