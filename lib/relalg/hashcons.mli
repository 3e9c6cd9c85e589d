(** Hash-consed logical trees: unique node ids, O(1) equality, cached
    size, maximal physical sharing of equal subtrees.

    {!intern} walks a tree bottom-up once; every structurally distinct
    subtree is assigned a unique id and canonicalized so equal subtrees
    are physically shared. All the optimizer's hot tables (the closure's
    seen set, the rewrite memo, the planner cache, cardinality and
    the logical-property memo) key on {!id} — one int compare — instead of deep
    structural hashing.

    The interning table is {e domain-local} ([Domain.DLS]): each domain
    interns into its own table with zero synchronization, and ids are
    allocated from per-domain blocks carved off one global atomic
    counter, so ids are unique across the whole process and never
    reused. Consequences: within a domain, [==]/{!equal} and {!id}
    behave exactly as a global table; across domains, two structurally
    equal trees interned independently are {e distinct} nodes with
    distinct ids — an id-keyed cache fed from several domains can
    therefore miss (recompute) but never alias two different trees.
    {!clear} and the {!hits}/{!misses}/{!live_nodes} introspection are
    likewise per-domain. See DESIGN.md §10 for the trade-off against a
    shared mutex-protected table.

    Table layout: the table is keyed on the nodes themselves. A lookup
    builds a probe node from the payload and the already canonical
    children; the table hashes the probe's shallow key ([skey]),
    compares the children by [==] and the payload shallowly, and answers
    with the canonical node. Each interned tree therefore costs one node
    record, one bucket and its [kids] array — no separate key record or
    child-id array. *)

type node = private {
  repr : Logical.t;
      (** the canonical tree; children are themselves canonical reprs *)
  id : int;  (** unique per structurally distinct tree, never reused *)
  nsize : int;  (** cached [Logical.size repr] *)
  phash : int;  (** cached [Logical.payload_hash repr] *)
  skey : int;
      (** shallow key: the payload's hash mixed with the children's ids —
          the interning table's hash *)
  kids : node array;  (** canonical children, in order *)
}

val intern : Logical.t -> node
(** Canonicalize a tree. O(size) on first sight, O(size) table hits on a
    re-interning; trees that share subtrees physically share the
    interning work of those subtrees' canonical forms. *)

val make : Logical.t -> node array -> node
(** [make payload kids] is the node of the operator [payload] over the
    canonical children [kids]: the payload's own children are ignored
    (pass the kids' reprs to avoid a reallocation). O(payload), not
    O(size) — how rules build their outputs over the nodes they matched,
    interning only the operators they create. *)

val rebuild : node -> int -> node -> node
(** [rebuild n i kid] is the node for [n.repr] with child [i] replaced by
    [kid] — O(1) in the tree size, and the payload is not re-hashed; this
    is how the engine re-wraps memoized child rewrites. Raises
    [Invalid_argument] on a bad index. *)

val repr : node -> Logical.t
val id : node -> int
val hash : node -> int
(** [Logical.hash (repr n)], recomputed: O(size). Tables of nodes key on
    {!id} instead. *)

val size : node -> int

val equal : node -> node -> bool
(** Physical (= structural, by the interning invariant) equality. *)

(** {2 Introspection} (wired into [Obs.Metrics] by the engine) *)

val live_nodes : unit -> int
val hits : unit -> int
val misses : unit -> int

type occupancy = {
  entries : int;  (** distinct interned nodes (= {!live_nodes}) *)
  buckets : int;  (** current bucket-array length of the table *)
  load_factor : float;  (** entries / buckets; > 1 means chains *)
  longest_chain : int;  (** worst-case probe length right now *)
}

val occupancy : unit -> occupancy
(** Table-shape snapshot for the calling domain — how full the interning
    table is, not just how many nodes it holds. Costs a full bucket scan
    ([Hashtbl.stats]); call at phase boundaries, not per intern. *)

val clear : unit -> unit
(** Drop the calling domain's table, and with it every cache registered
    through {!on_clear} — in particular the optimizer engine's
    cross-call rewrite memo and reusable closure, which hold nodes of
    this table — so a following [Gc.compact] reclaims all of them. Used
    for test isolation and between benchmark sections. Ids are not
    reused. *)

val on_clear : (unit -> unit) -> unit
(** [on_clear f] makes every later {!clear} run [f] on the clearing
    domain. For caches that hold interned nodes; register once, at
    module initialisation. *)
