(** The Stateful Dataflow multiGraph intermediate representation (the subset
    of DaCe's IR the paper's benchmarks exercise).

    An SDFG is a control-flow graph of {e states}; each state holds dataflow:
    data-parallel {!map}s over a symbolic range and {e library nodes} — high-level communication constructs (MPI, and this
    work's contribution: GPU-initiated NVSHMEM nodes) that expand to concrete
    operations during lowering. Interstate edges carry conditions and symbol
    assignments, which is how loops ([for t in range(1, TSTEPS)]) are
    represented.

    The program is SPMD: every rank executes the same SDFG with the symbols
    [rank] and [size] bound to its identity, exactly like the distributed
    DaCe programs of Ziogas et al. that the paper ports. *)

type storage =
  | Host_heap
  | Gpu_global
  | Gpu_nvshmem  (** symmetric-heap allocation (paper §5.3.3) *)

type schedule =
  | Sequential
  | Gpu_device  (** discrete GPU kernel per map *)
  | Gpu_persistent  (** fused into the persistent kernel *)

type array_desc = {
  arr_name : string;
  arr_size : Symbolic.expr;  (** elements *)
  storage : storage;
}

(** A strided 1-D view of an array: [count] elements starting at [offset],
    [stride] apart — the memlet subsets our communication nodes carry. *)
type region = { offset : Symbolic.expr; stride : Symbolic.expr; count : Symbolic.expr }

val contiguous : offset:Symbolic.expr -> count:Symbolic.expr -> region
val single : offset:Symbolic.expr -> region

(** Executable map semantics. DaCe tasklets are arbitrary code; here each map
    carries one of the update patterns the benchmarks need, applied per map
    index. [work] is the elements written per index (for the roofline cost
    model). *)
type map_sem =
  | Jacobi1d of { src : string; dst : string }
      (** over index i: [dst[i] = (src[i-1] + src[i] + src[i+1]) / 3] *)
  | Jacobi2d of {
      src : string;
      dst : string;
      row_width : Symbolic.expr;
      col_lo : Symbolic.expr;  (** inclusive column range updated per row *)
      col_hi : Symbolic.expr;
    }  (** map index = row; 5-point update of columns [col_lo..col_hi] *)
  | Jacobi3d of {
      src : string;
      dst : string;
      row_width : Symbolic.expr;  (** padded x extent *)
      plane_width : Symbolic.expr;  (** padded x*y extent *)
      ny : Symbolic.expr;  (** interior y extent *)
    }  (** map index = z plane; 7-point update of the plane's interior *)
  | Fill of { dst : string; value : float }
  | Init_global of { dst : string; global_off : Symbolic.expr }
      (** over index i: [dst[i] = init_value (global_off + i)] — deterministic
          initialization consistent across ranks and the reference solver *)
  | Init_global2d of {
      dst : string;
      row_width : Symbolic.expr;  (** local row width *)
      global_row0 : Symbolic.expr;
      global_row_width : Symbolic.expr;
      global_col0 : Symbolic.expr;
    }  (** map index = local row; fills the whole local row from the global
          initializer *)
  | Multi of map_sem list
      (** result of {!Transforms.map_fusion}: several updates per index *)

type map_stmt = {
  m_var : string;
  m_lo : Symbolic.expr;  (** inclusive *)
  m_hi : Symbolic.expr;  (** inclusive *)
  m_schedule : schedule;
  m_sem : map_sem;
  m_work : Symbolic.expr;  (** elements written per map index *)
}

type signal_kind = Sig_set | Sig_add

(** Communication library nodes. [Nv_put] is the high-level frontend node;
    {!Transforms.expand_nvshmem} lowers it to the concrete specialized forms
    below according to its region shape (paper §5.3.1). *)
type libnode =
  | Mpi_isend of { arr : string; region : region; dst_rank : Symbolic.expr; tag : int; req : string }
  | Mpi_irecv of { arr : string; region : region; src_rank : Symbolic.expr; tag : int; req : string }
  | Mpi_waitall of string list
  | Nv_put of {
      src : string;
      src_region : region;
      dst : string;
      dst_region : region;
      to_pe : Symbolic.expr;
      signal : (string * signal_kind * Symbolic.expr) option;
    }
  | Nv_putmem of { src : string; src_region : region; dst : string; dst_region : region; to_pe : Symbolic.expr }
  | Nv_putmem_signal of {
      src : string;
      src_region : region;
      dst : string;
      dst_region : region;
      to_pe : Symbolic.expr;
      signal : string;
      sig_kind : signal_kind;
      sig_value : Symbolic.expr;
    }
  | Nv_iput of { src : string; src_region : region; dst : string; dst_region : region; to_pe : Symbolic.expr }
  | Nv_p of { src : string; src_off : Symbolic.expr; dst : string; dst_off : Symbolic.expr; to_pe : Symbolic.expr }
  | Nv_signal_op of { signal : string; sig_kind : signal_kind; sig_value : Symbolic.expr; to_pe : Symbolic.expr }
  | Nv_signal_wait of { signal : string; ge_value : Symbolic.expr; from_pe : Symbolic.expr }
      (** wait until [signal] reaches [ge_value]; [from_pe] is the rank
          whose put raises it, named by stall diagnostics *)
  | Nv_quiet

type role_kind = Comm_role | Compute_role

type stmt =
  | S_map of map_stmt
  | S_lib of libnode
  | S_cond of { cond : Symbolic.cond; then_ : stmt list }
      (** rank-dependent guard (the [if rank > 0:] of the distributed
          Python sources) *)
  | S_role of { role : role_kind; body : stmt list }
      (** thread-block-specialized region (this work's extension of the
          paper's §5.4 future work): [Comm_role] statements execute on the
          dedicated communication thread-block group, [Compute_role] on the
          rest of the grid, concurrently until the next [S_grid_sync] *)
  | S_grid_sync  (** device-wide barrier point (persistent codegen inserts these) *)

type state = { st_name : string; stmts : stmt list }

type edge = {
  e_src : string;
  e_dst : string;
  e_cond : Symbolic.cond option;  (** [None] = unconditional *)
  e_assign : (string * Symbolic.expr) list;
}

type t = {
  sdfg_name : string;
  arrays : array_desc list;
  sdfg_signals : string list;  (** symmetric signal variables *)
  states : state list;
  edges : edge list;
  start_state : string;
  symbols : (string * int) list;  (** compile-time-fixed symbols (N, TSTEPS, size...) *)
}

val find_array : t -> string -> array_desc option
val find_state : t -> string -> state option
val has_signal : t -> string -> bool
val out_edges : t -> string -> edge list
val map_array : t -> f:(array_desc -> array_desc) -> t
val map_states : t -> f:(state -> state) -> t

(** {2 One walk and one operand list}

    Every pass that reads a statement reads it through these: {!walk} for
    where statements are, {!operands} for what each one names. A new
    statement or library node kind declares its operands in {!operands}
    (and {!is_nvshmem}); validation, analysis, the transforms and the
    executor's request and array lookups then see it without change. *)

val walk : stmt list -> stmt list
(** Every statement of a list in order, each followed by the statements of
    its {!S_cond} or {!S_role} body (recursively). *)

val map_bodies : f:(stmt list -> stmt list) -> stmt list -> stmt list
(** Rewrite a statement list and every nested {!S_cond} and {!S_role} body
    with [f], each body before the list that holds it. *)

val map_stmts : t -> f:(stmt -> stmt list) -> t
(** Rewrite every statement (1-to-many) in every state, recursing into
    {!S_cond} and {!S_role} bodies; [f] sees only the other statements. *)

val is_nvshmem : libnode -> bool
(** A GPU-initiated NVSHMEM node (its arrays must be on the symmetric heap). *)

val lib_label : libnode -> string
(** The node's name in messages: ["MPI_Isend"], ["nvshmem_putmem"], ... *)

type access = Read | Write

(** What one operand of a statement is. *)
type operand_kind =
  | Data of { array : string; access : access; symmetric : bool }
      (** an array read or written; [symmetric] when it must live on the
          symmetric heap (the arrays of NVSHMEM nodes) *)
  | Signal of string  (** a signal raised or waited on *)
  | Expr of Symbolic.expr  (** a symbolic expression: a range, offset, peer or value *)
  | Request of { req : string; access : access }
      (** an MPI request posted ([Write], by [MPI_Isend]/[MPI_Irecv]) or
          waited on ([Read], by [MPI_Waitall]) *)

type operand = { label : string; kind : operand_kind }
(** [label] names the node in messages: ["nvshmem_putmem"],
    ["jacobi2d map(i)"], ["map(i) range"], ["branch condition"], ... *)

val operands : stmt -> operand list
(** The statement's own operands in order (not those of a nested body):
    a map's range and work, then its semantics'; a library node's arrays,
    then its regions, peer, signal and value; a guard's two condition
    sides. *)

val sem_operands : var:string -> map_sem -> operand list
(** The operands of a map semantics, labelled with the map variable [var]. *)

val arrays : ?access:access -> operand list -> string list
(** The arrays among [operands], in order (only those of [access] when
    given). *)

val pp_summary : Format.formatter -> t -> unit
