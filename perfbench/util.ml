(* Small helpers shared by the workloads: clocks, order statistics, seeded
   randomness, process-status reads and run-directory housekeeping. *)

module J = Core.Serve.Json

let now () = Core.Obs.Clock.now_s ()

(* Nearest-rank percentile of an unsorted sample; [p] in [0, 1]. *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let k = int_of_float (ceil (p *. float n)) - 1 in
      a.(max 0 (min (n - 1) k))

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0. xs /. float (List.length xs)

(* Words allocated so far by this domain's program (minor + direct major,
   promotions counted once). *)
let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* A seeded stream: the same (seed, salt) always yields the same draws. *)
let rng seed salt = Random.State.make [| 0x5eed; seed; salt |]
let pick st xs = List.nth xs (Random.State.int st (List.length xs))

let shuffle st xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let nproc () =
  try
    let ic = Unix.open_process_in "nproc 2>/dev/null" in
    let n = int_of_string (String.trim (input_line ic)) in
    ignore (Unix.close_process_in ic);
    max 1 n
  with _ -> max 1 (Domain.recommended_domain_count ())

(* A field of /proc/<pid>/status in kB (VmHWM, VmRSS, ...). *)
let proc_status_kb pid field =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line -> (
            match String.index_opt line ':' with
            | Some i when String.sub line 0 i = field -> (
                let rest = String.sub line (i + 1) (String.length line - i - 1) in
                match
                  String.split_on_char ' ' (String.trim rest)
                  |> List.filter (( <> ) "")
                with
                | v :: _ -> int_of_string_opt v
                | [] -> None)
            | _ -> scan ())
      in
      let r = scan () in
      close_in ic;
      r

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let mkdir_p dir =
  let rec go d =
    if d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

(* Total bytes and regular-file count under [dir]. *)
let dir_usage dir =
  let bytes = ref 0 and files = ref 0 in
  let rec walk d =
    Array.iter
      (fun f ->
        let p = Filename.concat d f in
        match Unix.lstat p with
        | { Unix.st_kind = Unix.S_DIR; _ } -> walk p
        | { Unix.st_kind = Unix.S_REG; st_size; _ } ->
            bytes := !bytes + st_size;
            incr files
        | _ -> ()
        | exception Unix.Unix_error _ -> ())
      (try Sys.readdir d with Sys_error _ -> [||])
  in
  walk dir;
  (!bytes, !files)

let md5_hex s = Digest.to_hex (Digest.string s)

(* The rule text of a k-edge path query over [rel]:
   [head(x,y) :- E(x,m1), E(m1,m2), ..., E(m(k-1),y)]. *)
let path_rule ?(rel = "E") head k =
  let var i =
    if i = 0 then "x" else if i = k then "y" else Printf.sprintf "m%d" i
  in
  Printf.sprintf "%s(x,y) :- %s" head
    (String.concat ", "
       (List.init k (fun i ->
            Printf.sprintf "%s(%s,%s)" rel (var i) (var (i + 1)))))

(* Where a run keeps its scratch files (daemon socket, store and log,
   trace files): inside the checkout, ignored by git. *)
let run_dir = ".perfbench_run"
