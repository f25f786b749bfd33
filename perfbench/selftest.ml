(* The checkers' own tests: each checker must accept a true output and
   reject a corrupted one — a flipped digest, a dropped fact, a reduction
   size off by one, and edits replayed out of order.  Returns the exit
   code (0 when every checker behaved). *)

open Core
module J = Util.J
module S = Relational.Structure

let flip_hex s =
  String.mapi
    (fun i c -> if i = 0 then if c = '0' then '1' else '0' else c)
    s

let done_reply digest =
  J.Obj
    [
      ("state", J.String "done");
      ("result", J.Obj [ ("digest", J.String digest) ]);
    ]

(* A flipped digest in a daemon reply. *)
let flipped_digest () =
  let spec = Serve.Job.Worm { machine = "creeper"; steps = 300 } in
  let d = Daemon.reference_digest spec in
  ( Checks.job ~what:"worm" ~expected:d (done_reply d),
    Checks.job ~what:"worm" ~expected:d (done_reply (flip_hex d)) )

(* A chase result with one fact dropped. *)
let dropped_fact () =
  let inp = Batch.build_inputs () in
  let run engine =
    let d = fst (Tgd.Greenred.green_canonical inp.Batch.e10_q0) in
    (Tgd.Chase.run ~engine ~max_stages:5 inp.Batch.e10_deps d, d)
  in
  let _, reference = run `Stage in
  let reference = S.digest_hex reference in
  let stats, d = run `Seminaive in
  let good = Checks.tgd_chase ~what:"E10" ~reference ~max_stages:5 stats d in
  (match List.rev (S.facts d) with
  | f :: _ -> ignore (S.retract_fact d f)
  | [] -> ());
  (good, Checks.tgd_chase ~what:"E10" ~reference ~max_stages:5 stats d)

(* A reduction shape with one size off by one. *)
let size_off_by_one () =
  let m = Rainworm.Zoo.stillborn in
  let sh = Reduction.Pipeline.shape (Reduction.Pipeline.of_machine m) in
  ( Checks.reduction_shape ~what:"stillborn" m sh,
    Checks.reduction_shape ~what:"stillborn" m
      { sh with Reduction.Pipeline.tgd_count = sh.Reduction.Pipeline.tgd_count + 1 } )

(* A client's edits replayed out of order.  The replies are what an
   in-process instance answers when the edits run in submission order;
   the checker must accept them in that order and reject them when two
   edits trade places. *)
let out_of_order () =
  let elems = Daemon.path_elements () in
  let g = { Daemon.seed = 7; client = 0; clients = 1; history = [] } in
  let items = Daemon.mutate_round ~elems g 0 @ Daemon.mutate_round ~elems g 1 in
  let views, q0 =
    Result.get_ok (Serve.Job.parse_rules Daemon.mutate_views Daemon.mutate_q0)
  in
  let m, _ =
    Tgd.Chase.Maint.create (Tgd.Dep.t_q views)
      (fst (Tgd.Greenred.green_canonical q0))
  in
  let records =
    List.mapi
      (fun i (it : Daemon.item) ->
        let ops =
          match it.Daemon.spec with Serve.Job.Mutate { ops; _ } -> ops | _ -> []
        in
        let result =
          if ops = [] then []
          else
            let es =
              Tgd.Chase.Maint.apply_edit m
                (List.map
                   (fun (o : Serve.Job.edit_op) ->
                     let f =
                       Relational.Fact.make
                         (Relational.Symbol.make ~color:Relational.Symbol.Green
                            o.Serve.Job.rel 2)
                         (Array.of_list o.Serve.Job.args)
                     in
                     if o.Serve.Job.add then Tgd.Chase.Maint.Insert f
                     else Tgd.Chase.Maint.Retract f)
                   ops)
            in
            [
              ("killed", J.Int es.Tgd.Chase.Maint.e_killed);
              ("refired", J.Int es.Tgd.Chase.Maint.e_refired);
            ]
        in
        let digest = S.digest_hex (Tgd.Chase.Maint.structure m) in
        {
          Daemon.item = it;
          id = Printf.sprintf "j%06d" i;
          submit_s = 0.;
          latency_s = 0.;
          reply =
            Some
              (J.Obj
                 [
                   ("state", J.String "done");
                   ("result", J.Obj (("digest", J.String digest) :: result));
                 ]);
          error = None;
          traced = false;
        })
      items
  in
  let swapped =
    match records with
    | a :: b :: c :: rest -> c :: b :: a :: rest (* two edits trade places *)
    | rs -> rs
  in
  let problems rs = List.concat_map snd (fst (Daemon.check_mutate ~client:0 rs)) in
  (problems records, problems swapped)

let run () =
  let cases =
    [
      ("flipped digest", flipped_digest);
      ("dropped fact", dropped_fact);
      ("reduction size off by one", size_off_by_one);
      ("edits replayed out of order", out_of_order);
    ]
  in
  let bad =
    List.filter
      (fun (name, case) ->
        let good, corrupted = case () in
        let ok = good = [] && corrupted <> [] in
        Printf.printf "%-30s true output %s, corrupted output %s\n%!" name
          (if good = [] then "accepted" else "REJECTED")
          (if corrupted <> [] then "rejected" else "ACCEPTED");
        List.iter (fun p -> Printf.printf "    %s\n" p) (good @ corrupted);
        not ok)
      cases
  in
  if bad = [] then 0 else 1
