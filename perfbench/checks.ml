(* The output checkers.  Each one judges an output against a computation
   made apart from the code path under test (the [`Stage] reference
   engine, the simulator, a from-scratch chase) or against a property the
   construction must have — never against a stored copy of an earlier
   output.  A checker returns the list of problems it found; empty means
   the output passed. *)

open Core
module S = Relational.Structure

let fail_if cond msg = if cond then [ msg ] else []

let digest ~what ~expected got =
  fail_if (expected <> got)
    (Printf.sprintf "%s: digest %s, reference %s" what got expected)

(* --- paper-batch ------------------------------------------------------ *)

(* E10: T_Q chased for a fixed number of stages, still growing. *)
let tgd_chase ~what ~reference ~max_stages (stats : Tgd.Chase.stats) d =
  digest ~what ~expected:reference (S.digest_hex d)
  @ fail_if
      (stats.Tgd.Chase.stages <> max_stages || stats.Tgd.Chase.fixpoint)
      (Printf.sprintf "%s: expected %d stages without fixpoint, got %d%s" what
         max_stages stats.Tgd.Chase.stages
         (if stats.Tgd.Chase.fixpoint then " (fixpoint)" else ""))

(* Lemma 17/18: two colliding αβ-paths of lengths t, t' grid into a 1-2
   pattern exactly when t <> t'.  A clean grid is a fixpoint model of
   T□; a pattern stops the chase early. *)
let grid ~what ~t ~t' ~reference (pattern, (stats : Greengraph.Rule.stats), g)
    =
  digest ~what ~expected:reference (Greengraph.Graph.digest_hex g)
  @ fail_if (pattern <> (t <> t'))
      (Printf.sprintf "%s: 1-2 pattern %b, expected %b" what pattern (t <> t'))
  @
  if t = t' then
    fail_if (not stats.Greengraph.Rule.fixpoint) (what ^ ": no fixpoint")
    @ fail_if
        (not (Greengraph.Rule.models Separating.Tbox.rules g))
        (what ^ ": grid does not model T□")
  else []

(* A determined verdict is certified by an exact CQ rewriting that agrees
   with Q0 on the seeded instances; a counterexample must pass the
   certification of Section IV (D ⊨ T_Q, a green Q0-answer not red). *)
let random_digraph st ~elems ~edges =
  let d = S.create () in
  let vs = Array.init elems (fun _ -> S.fresh d) in
  let e = Relational.Symbol.make "E" 2 in
  for _ = 1 to edges do
    S.add2 d e vs.(Random.State.int st elems) vs.(Random.State.int st elems)
  done;
  d

let determined ~what inst ~samples verdict =
  match verdict with
  | Determinacy.Solver.Determined _ -> (
      let views = Determinacy.Instance.views inst
      and q0 = Determinacy.Instance.q0 inst in
      match Determinacy.Rewriting.conjunctive ~views q0 with
      | Determinacy.Rewriting.No_conjunctive_rewriting ->
          [ what ^ ": determined, but no rewriting certifies it" ]
      | Determinacy.Rewriting.Rewriting r ->
          List.concat_map
            (fun d ->
              let via_views =
                Cq.Eval.answers r (Cq.Eval.view_structure views d)
              in
              fail_if
                (not (Cq.Eval.Tuple_set.equal via_views (Cq.Eval.answers q0 d)))
                (what ^ ": rewriting disagrees with Q0 on a seeded instance"))
            samples)
  | v ->
      [
        Format.asprintf "%s: expected determined, got %a" what
          Determinacy.Solver.pp_verdict v;
      ]

let not_determined ~what inst verdict =
  match verdict with
  | Determinacy.Solver.Not_determined d ->
      fail_if
        (not (Determinacy.Solver.certify_counterexample inst d))
        (what ^ ": counterexample fails certification")
  | v ->
      [
        Format.asprintf "%s: expected a counterexample, got %a" what
          Determinacy.Solver.pp_verdict v;
      ]

(* Theorem 5's instance sizes in closed form, from the construction:
   |T_M| = 2 base rules + one rule per instruction except ♦1,
   T_M□ adds the 41 rules of T□, Precompile makes 3 + 2 swarm rules per
   green rule, Compile one CQ per swarm rule and T_Q two TGDs per CQ,
   s = 2(|T_M□| + 1) + 2, and a CQ glues two spider queries with two
   calves omitted each: 2 · (2 + 4s − 2) = 8s atoms. *)
let expected_shape machine =
  let n = Rainworm.Machine.size machine in
  let d1 =
    List.length
      (List.filter
         (fun i -> Rainworm.Instruction.lhs i = [ Rainworm.Sym.Eta11 ])
         (Rainworm.Machine.rules machine))
  in
  let green = 2 + (n - d1) + 41 in
  let swarm = 3 + (2 * green) in
  let s = (2 * (green + 1)) + 2 in
  {
    Reduction.Pipeline.machine_instructions = n;
    green_rule_count = green;
    swarm_rule_count = swarm;
    query_count = swarm;
    tgd_count = 2 * swarm;
    s;
    atoms_per_query = 8 * s;
  }

let reduction_shape ~what machine (shape : Reduction.Pipeline.shape) =
  let e = expected_shape machine in
  fail_if (shape <> e)
    (Format.asprintf "%s: shape %a, closed form %a" what
       Reduction.Pipeline.pp_shape shape Reduction.Pipeline.pp_shape e)

(* Lemma 24 "⇐": the finite model of a halting worm satisfies T_M ∪ T□
   and has no 1-2 pattern. *)
let finite_model ~what (wr, (m : Reduction.Finite_model.t), _) =
  let g = m.Reduction.Finite_model.graph in
  fail_if
    (not (Greengraph.Rule.models (Reduction.Worm_rules.with_grid wr) g))
    (what ^ ": finite model does not satisfy T_M ∪ T□")
  @ fail_if
      (Greengraph.Graph.has_12_pattern g)
      (what ^ ": finite model has a 1-2 pattern")

(* The eternal creeper never halts: after its budget it is still
   creeping, having used the whole budget. *)
let creeper ~what ~steps (tr : Rainworm.Sim.trace) =
  match tr.Rainworm.Sim.outcome with
  | Rainworm.Sim.Running _ when tr.Rainworm.Sim.steps = steps -> []
  | Rainworm.Sim.Running _ ->
      [ Printf.sprintf "%s: ran %d of %d steps" what tr.Rainworm.Sim.steps steps ]
  | Rainworm.Sim.Halted _ -> [ what ^ ": the eternal creeper halted" ]

(* --- daemon jobs ------------------------------------------------------- *)

(* A terminal job reply: it must be [done], and its digest must equal
   the independently computed one. *)
let job ~what ~expected (j : Util.J.t) =
  match Util.J.mem_str "state" j with
  | Some "done" ->
      let got =
        Option.value ~default:""
          (Option.bind (Util.J.member "result" j) (Util.J.mem_str "digest"))
      in
      digest ~what ~expected got
  | Some st ->
      [
        Printf.sprintf "%s: ended %s%s" what st
          (match Util.J.mem_str "error" j with Some m -> ": " ^ m | None -> "");
      ]
  | None -> [ what ^ ": reply carries no state" ]

(* The held instance after a client's edits: a model of T_Q, internally
   consistent, and hom-equivalent — base elements pinned — to a
   from-scratch [`Stage] chase of [base], the edited base built apart. *)
let maint_replica ~what deps m ~base =
  let d = Tgd.Chase.Maint.structure m in
  let pinned =
    List.filter_map
      (fun e ->
        if S.elem_stage d e <> None then Some (e, e) else None)
      (S.elems base)
  in
  ignore (Tgd.Chase.run ~engine:`Stage deps base);
  fail_if (not (Tgd.Chase.models deps d)) (what ^ ": replica violates T_Q")
  @ List.map (fun v -> what ^ ": " ^ v) (Tgd.Chase.Maint.check m)
  @ fail_if
      (not
         (Relational.Hom.exists_between ~init:pinned d base
         && Relational.Hom.exists_between ~init:pinned base d))
      (what ^ ": replica is not hom-equivalent to a from-scratch chase")
