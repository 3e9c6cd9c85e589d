(* Machine-speed reference for the benchmark.

   Usage:
     calibrate.exe

   Runs a fixed, deterministic piece of OCaml work [samples] times after
   one untimed warm-up piece, and prints the time of each piece, in
   seconds, on one line of stdout. It links nothing from lib/, so no
   change to the program can change how long it takes: it measures only
   how fast the machine runs right now. run.py runs it before and after
   every repetition and reports the run's timings at a fixed reference
   speed (see README.md, "Noise").

   The work resembles the optimizer's: bounded exploration of a rewrite
   space of small immutable join/select trees, memoized in a hash table
   by structural hash, with a float cost per tree. *)

type expr =
  | Scan of int
  | Select of int * expr
  | Join of expr * expr

(* The rewrites: join commutativity and associativity, select pushdown
   into either join input, and select merge-swap. *)
let rewrites e =
  match e with
  | Join (a, b) ->
    let assoc = match a with Join (x, y) -> [ Join (x, Join (y, b)) ] | _ -> [] in
    Join (b, a) :: assoc
  | Select (p, Join (a, b)) -> [ Join (Select (p, a), b); Join (a, Select (p, b)) ]
  | Select (p, Select (q, x)) -> [ Select (q, Select (p, x)) ]
  | _ -> []

(* Every tree one rewrite away, at any position. *)
let rec neighbours e =
  let here = rewrites e in
  let below =
    match e with
    | Scan _ -> []
    | Select (p, x) -> List.map (fun x' -> Select (p, x')) (neighbours x)
    | Join (a, b) ->
      List.map (fun a' -> Join (a', b)) (neighbours a)
      @ List.map (fun b' -> Join (a, b')) (neighbours b)
  in
  here @ below

let rec cost = function
  | Scan t -> 100. +. float (t * 37 mod 1000)
  | Select (p, x) -> (0.2 +. (float (p mod 7) /. 10.)) *. cost x
  | Join (a, b) ->
    let ca = cost a and cb = cost b in
    ca +. cb +. (ca *. cb /. 500.)

(* Bounded breadth-first exploration from [q]; returns the cheapest
   tree's cost. *)
let explore ~budget q =
  let seen = Hashtbl.create 1024 in
  let queue = Queue.create () in
  Hashtbl.replace seen q ();
  Queue.push q queue;
  let best = ref (cost q) in
  while (not (Queue.is_empty queue)) && Hashtbl.length seen < budget do
    let e = Queue.pop queue in
    List.iter
      (fun e' ->
        if not (Hashtbl.mem seen e') then begin
          Hashtbl.replace seen e' ();
          best := Float.min !best (cost e');
          Queue.push e' queue
        end)
      (neighbours e)
  done;
  !best

let rec query st depth =
  if depth = 0 then Scan (Random.State.int st 8)
  else if Random.State.int st 3 = 0 then Select (Random.State.int st 100, query st (depth - 1))
  else Join (query st (depth - 1), query st (Random.State.int st depth))

(* One piece of work: the same 200 queries explored every time. *)
let piece () =
  let st = Random.State.make [| 20091 |] in
  let total = ref 0. in
  for _ = 1 to 200 do
    total := !total +. explore ~budget:400 (query st 4)
  done;
  !total

let samples = 4

let () =
  let expected = piece () in
  let times =
    List.init samples (fun _ ->
        let t0 = Unix.gettimeofday () in
        let v = piece () in
        let t = Unix.gettimeofday () -. t0 in
        if v <> expected then failwith "calibration work is not deterministic";
        t)
  in
  print_endline (String.concat " " (List.map (Printf.sprintf "%.6f") times))
