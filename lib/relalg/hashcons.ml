(* Hash-consed logical trees.

   Interning assigns every structurally distinct tree a unique integer
   id; the returned node caches the size, and canonicalizes the tree so
   equal subtrees are physically shared. On top of it, equality is [==],
   and every tree-keyed table in the optimizer can key on [id] instead of
   deep structural hashing (which, with [Hashtbl.hash]'s bounded
   traversal, degenerated to linear collision scans on realistic query
   sizes).

   The table is domain-local (Domain.DLS) and grows monotonically until
   [clear]; each domain interns without any synchronization. Ids are
   carved out of one global atomic block allocator so they are unique
   process-wide and stay valid for the lifetime of the process ([clear]
   drops the current domain's table for test isolation but never reuses
   ids, so stale id-keyed caches can miss, never lie — even when nodes
   from several domains meet in one table). *)

module L = Logical

type node = {
  repr : L.t;  (** canonical tree: children are canonical reprs *)
  id : int;
  nsize : int;  (** = [Logical.size repr], cached *)
  phash : int;  (** = [Logical.payload_hash repr], cached *)
  skey : int;  (** payload hash mixed with the children's ids *)
  kids : node array;
}

(* The table is keyed on the nodes themselves: a lookup builds a probe
   node (the payload as given, its already canonical children and the
   shallow key derived from them) and the table answers with the
   canonical node equal to it. Two trees are structurally equal iff
   their payloads are equal and their children are the same canonical
   nodes, so [equal] compares the shallow key, the children by [==] and
   the payload shallowly. Each node is stored once: there is no separate
   key record or child-id array per entry.

   The table hashes the shallow key, not the structural
   [Logical.hash]: mixing in the children's unique ids spreads
   near-identical trees (the placeholder trees of rule discovery) that
   the polynomial structural hash packs into few buckets. *)
module Tbl = Hashtbl.Make (struct
  type t = node

  let equal a b =
    a.skey = b.skey
    && Array.length a.kids = Array.length b.kids
    && (let n = Array.length a.kids in
        let rec same i = i >= n || (a.kids.(i) == b.kids.(i) && same (i + 1)) in
        same 0)
    && L.payload_equal a.repr b.repr

  let hash n = n.skey
end)

(* Per-domain interning state. Ids come from fixed-size blocks handed
   out by one global atomic counter: domains never contend on the hot
   path (a block lasts ~4M interns) yet ids can never collide across
   domains, which is what keeps cross-domain id-keyed caches honest. *)
type state = {
  table : node Tbl.t;
  mutable next_id : int;
  mutable id_limit : int;  (** exclusive end of the current block *)
  mutable hit_count : int;
  mutable miss_count : int;
}

let id_block_bits = 22
let next_block = Atomic.make 0

let refill_block st =
  let b = Atomic.fetch_and_add next_block 1 in
  st.next_id <- b lsl id_block_bits;
  st.id_limit <- (b + 1) lsl id_block_bits

let state_key =
  Domain.DLS.new_key (fun () ->
      let st =
        { table = Tbl.create 4096;
          next_id = 0;
          id_limit = 0;
          hit_count = 0;
          miss_count = 0 }
      in
      refill_block st;
      st)

let state () = Domain.DLS.get state_key

let fresh_id st =
  if st.next_id >= st.id_limit then refill_block st;
  let id = st.next_id in
  st.next_id <- id + 1;
  id

let node_of st ~phash (payload : L.t) (kids : node array) : node =
  let skey = Array.fold_left (fun h k -> Scalar.hash_combine h k.id) phash kids in
  let probe = { repr = payload; id = -1; nsize = 0; phash; skey; kids } in
  match Tbl.find_opt st.table probe with
  | Some n ->
    st.hit_count <- st.hit_count + 1;
    n
  | None ->
    st.miss_count <- st.miss_count + 1;
    let canonical_kids = Array.to_list (Array.map (fun k -> k.repr) kids) in
    let repr =
      (* Avoid reallocating when the payload's children are already the
         canonical ones (always true for trees built from reprs). *)
      if List.for_all2 ( == ) (L.children payload) canonical_kids then payload
      else L.with_children payload canonical_kids
    in
    let nsize = Array.fold_left (fun s k -> s + k.nsize) 1 kids in
    let n = { repr; id = fresh_id st; nsize; phash; skey; kids } in
    Tbl.replace st.table n n;
    n

let make (payload : L.t) (kids : node array) : node =
  node_of (state ()) ~phash:(L.payload_hash payload) payload kids

let intern (t : L.t) : node =
  let st = state () in
  let rec go t =
    node_of st ~phash:(L.payload_hash t) t (Array.of_list (List.map go (L.children t)))
  in
  go t

let rebuild (n : node) i (kid : node) : node =
  if i < 0 || i >= Array.length n.kids then
    invalid_arg "Hashcons.rebuild: child index out of range";
  if n.kids.(i) == kid then n
  else begin
    let kids = Array.copy n.kids in
    kids.(i) <- kid;
    node_of (state ()) ~phash:n.phash n.repr kids
  end

let repr n = n.repr
let id n = n.id
let hash n = L.hash n.repr
let size n = n.nsize
let equal (a : node) (b : node) = a == b
let live_nodes () = Tbl.length (state ()).table
let hits () = (state ()).hit_count
let misses () = (state ()).miss_count

type occupancy = {
  entries : int;
  buckets : int;
  load_factor : float;
  longest_chain : int;
}

let occupancy () =
  let s = Tbl.stats (state ()).table in
  { entries = s.Hashtbl.num_bindings;
    buckets = s.Hashtbl.num_buckets;
    load_factor =
      (if s.Hashtbl.num_buckets = 0 then 0.0
       else float_of_int s.Hashtbl.num_bindings /. float_of_int s.Hashtbl.num_buckets);
    longest_chain = s.Hashtbl.max_bucket_length }

(* Run by [clear] on the calling domain: caches holding this domain's
   nodes or keyed on their ids (the engine's rewrite memo, the property
   memo) register here at module initialisation so they are dropped
   together with the table. *)
let clear_hooks : (unit -> unit) list ref = ref []
let on_clear f = clear_hooks := f :: !clear_hooks

let clear () =
  let st = state () in
  Tbl.reset st.table;
  st.hit_count <- 0;
  st.miss_count <- 0;
  List.iter (fun f -> f ()) !clear_hooks
