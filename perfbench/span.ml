(* Spans recorded by the benchmark around its calls into the program's
   layers.  Each client thread owns one recorder (one track), so no two
   domains ever write the same buffer; the recorders are merged when the
   run ends and written out as a Chrome trace.

   A recorder that is off records nothing: [with_span] is then one
   branch around the call. *)

type span = {
  id : int;
  track : int;
  name : string;
  job : string; (* the job (or pass) the span belongs to; "" if none *)
  parent : int; (* id of the enclosing span on the same track; -1 if none *)
  t0 : float;
  t1 : float;
}

type recorder = {
  track : int;
  mutable on : bool; (* toggled per pass/round to measure the overhead *)
  mutable next : int;
  mutable stack : int list;
  mutable spans : span list;
}

let recorder ~on track = { track; on; next = 0; stack = []; spans = [] }

(* Span ids are unique across tracks: track in the high bits. *)
let fresh_id r =
  let id = (r.track lsl 40) lor r.next in
  r.next <- r.next + 1;
  id

let with_span r ?(job = "") name f =
  if not r.on then f ()
  else begin
    let id = fresh_id r in
    let parent = match r.stack with p :: _ -> p | [] -> -1 in
    r.stack <- id :: r.stack;
    let t0 = Util.now () in
    let finish () =
      let t1 = Util.now () in
      r.stack <- List.tl r.stack;
      r.spans <- { id; track = r.track; name; job; parent; t0; t1 } :: r.spans
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let spans rs = List.concat_map (fun r -> List.rev r.spans) rs

(* Self time of every span: its duration minus the part its children
   cover (children never overlap on one track, so the sum is exact). *)
let self_times spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          ((s.t1 -. s.t0)
          +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s ->
      ( s,
        s.t1 -. s.t0 -. Option.value ~default:0. (Hashtbl.find_opt child s.id) ))
    spans

(* Self time summed per span name, in seconds. *)
let self_by_name spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      Hashtbl.replace tbl s.name
        (self +. Option.value ~default:0. (Hashtbl.find_opt tbl s.name)))
    (self_times spans);
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* Chrome trace-event JSON ("X" complete events, microseconds, one tid
   per track). *)
let export path spans =
  let epoch = List.fold_left (fun m s -> Float.min m s.t0) infinity spans in
  let module J = Util.J in
  let ev s =
    J.Obj
      [
        ("name", J.String s.name);
        ("ph", J.String "X");
        ("pid", J.Int 1);
        ("tid", J.Int s.track);
        ("ts", J.Float ((s.t0 -. epoch) *. 1e6));
        ("dur", J.Float ((s.t1 -. s.t0) *. 1e6));
        ( "args",
          J.Obj
            [
              ("id", J.Int s.id);
              ("parent", J.Int s.parent);
              ("job", J.String s.job);
            ] );
      ]
  in
  let oc = open_out path in
  output_string oc
    (J.to_string (J.Obj [ ("traceEvents", J.List (List.map ev spans)) ]));
  output_char oc '\n';
  close_out oc
