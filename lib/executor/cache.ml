module PTbl = Optimizer.Physical.Tbl

(* Execution results keyed by the structural fingerprint of the physical
   plan. The store is per-domain (Domain.DLS), matching the [lib/par]
   discipline: no locks on the hot path, no cross-domain sharing of the
   mutable table, and — because hits and misses never leak into any
   reported count — [--jobs N] output stays byte-identical to [--jobs 1]
   even though each domain warms its own cache. Callers that report
   execution totals must count *logical* executions (increment whether
   or not the run was served from cache).

   Plans from different catalogs may collide structurally, so the store
   remembers which catalog filled it and resets on (physical) catalog
   change; tests and multi-catalog tools get isolation for free.

   Below the per-domain memory tier sits an optional shared disk tier
   ([set_disk]): misses consult a [Storage.Diskcache] entry keyed by the
   caller-supplied catalog key plus the plan fingerprint, and computed
   results are written back. Entries store the full plan alongside the
   result and are only served on structural [Physical.equal] — a
   fingerprint (or filename) collision degrades to a miss, never to a
   wrong result. The disk tier is configured once at startup, before
   any worker domains spawn. *)

(* Subplan entries ([Batch.memo]) hand one row array to every later
   consumer. That is sound only because no operator mutates the rows it
   is given ([Sort] copies, [Resultset.normalized] sorts a copy). *)
type store = {
  mutable catalog : Storage.Catalog.t option;
  plans : (Resultset.t, string) result PTbl.t;
  subplans : Storage.Value.t array array PTbl.t;
  mutable bytes : int;
}

let key =
  Domain.DLS.new_key (fun () ->
      { catalog = None; plans = PTbl.create 256; subplans = PTbl.create 256; bytes = 0 })

let hits_c = Obs.Metrics.counter "executor.result_cache.hits"
let miss_c = Obs.Metrics.counter "executor.result_cache.misses"
let disk_hit_c = Obs.Metrics.counter "executor.result_cache.disk_hits"
let disk_miss_c = Obs.Metrics.counter "executor.result_cache.disk_misses"
let disk_store_c = Obs.Metrics.counter "executor.result_cache.disk_stores"
let memo_hit_c = Obs.Metrics.counter "executor.subplan_memo.hits"
let memo_miss_c = Obs.Metrics.counter "executor.subplan_memo.misses"
let memo_reset_c = Obs.Metrics.counter "executor.subplan_memo.resets"
let bytes_g = Obs.Metrics.gauge "executor.subplan_memo.bytes"

(* Per-site attribution: the same totals, additionally keyed by which
   caller asked (validate vs triage-oracle vs replay ...), so `qtr
   stats`/`qtr report` can say who benefits from the cache and who only
   fills it. Sites are a small closed set of short strings, so the
   labeled-counter registry stays tiny. *)
let site_hit site = Obs.Metrics.counter ~label:site "executor.result_cache.hits"
let site_miss site = Obs.Metrics.counter ~label:site "executor.result_cache.misses"

(* Once the estimated size of every stored row would pass it, the store
   starts over. Unbounded, the memo peaks at 75 MB on the fault-hunt
   perfbench workload. At this bound it resets once there and keeps
   every hit. Of the bounds tried (24 to 128 MiB), it gave the lowest
   peak RSS on seeds 1 to 3. Peak RSS is not monotone in the bound: at
   64 MiB it read 12 MB above the parent's. *)
let max_bytes = 40 lsl 20

let word = Sys.word_size / 8

(* Estimated heap bytes of a row array: per row, its slot in the array,
   its header and one cell per column. Values are mostly shared with the
   catalog's tables and are not counted. *)
let rows_bytes rows =
  match rows with
  | [||] -> 0
  | _ -> Array.length rows * (Array.length rows.(0) + 2) * word

(* A whole-plan result also holds its normalized copy. *)
let result_bytes = function
  | Ok rs -> rows_bytes (Resultset.rows rs) + (Resultset.row_count rs * word)
  | Error msg -> String.length msg

let reset s =
  PTbl.reset s.plans;
  PTbl.reset s.subplans;
  s.bytes <- 0;
  Obs.Metrics.gauge_set bytes_g 0.

let reserve s bytes =
  if s.bytes + bytes > max_bytes then begin
    reset s;
    Obs.Metrics.incr memo_reset_c
  end;
  s.bytes <- s.bytes + bytes;
  Obs.Metrics.gauge_set bytes_g (float_of_int s.bytes)

let memo s : Batch.memo =
 fun plan run ->
  match PTbl.find_opt s.subplans plan with
  | Some rows ->
    Obs.Metrics.incr memo_hit_c;
    rows
  | None ->
    Obs.Metrics.incr memo_miss_c;
    let rows = run () in
    reserve s (rows_bytes rows);
    PTbl.add s.subplans plan rows;
    rows

let disk_ns = "results"

(* Written once during CLI startup, read by every domain afterwards: an
   immutable option behind a plain reference is race-free for that
   pattern. *)
let disk : (Storage.Diskcache.t * string) option ref = ref None
let set_disk d = disk := d

let disk_key catkey plan =
  Printf.sprintf "%s/%x" catkey (Optimizer.Physical.fingerprint plan)

let disk_load plan =
  match !disk with
  | None -> None
  | Some (dc, catkey) -> (
    Obs.Trace.with_span "cache.disk.load" @@ fun () ->
    match
      (Storage.Diskcache.load dc ~ns:disk_ns ~key:(disk_key catkey plan)
        : (Optimizer.Physical.t * (Resultset.t, string) result) option)
    with
    | Some (stored_plan, r) when Optimizer.Physical.equal stored_plan plan ->
      Obs.Metrics.incr disk_hit_c;
      Some r
    | Some _ | None ->
      Obs.Metrics.incr disk_miss_c;
      None)

let disk_store plan r =
  match !disk with
  | None -> ()
  | Some (dc, catkey) ->
    Obs.Trace.with_span "cache.disk.store" @@ fun () ->
    if Storage.Diskcache.store dc ~ns:disk_ns ~key:(disk_key catkey plan) (plan, r)
    then Obs.Metrics.incr disk_store_c

let run ?(site = "adhoc") catalog plan =
  let s = Domain.DLS.get key in
  (match s.catalog with
  | Some c when c == catalog -> ()
  | _ ->
    reset s;
    s.catalog <- Some catalog);
  match PTbl.find_opt s.plans plan with
  | Some r ->
    Obs.Metrics.incr hits_c;
    Obs.Metrics.incr (site_hit site);
    r
  | None ->
    Obs.Metrics.incr miss_c;
    Obs.Metrics.incr (site_miss site);
    let r, from_disk =
      match disk_load plan with
      | Some r -> (r, true)
      | None -> (Exec.run ~memo:(memo s) catalog plan, false)
    in
    (* Pre-sort on the owning domain so a cached result handed to later
       bag comparisons is already normalized (and never mutated by a
       reader on another domain). *)
    (match r with
    | Ok rs -> ignore (Resultset.normalized rs)
    | Error _ -> ());
    if not from_disk then disk_store plan r;
    reserve s (result_bytes r);
    PTbl.add s.plans plan r;
    r

let clear () =
  let s = Domain.DLS.get key in
  reset s;
  s.catalog <- None
