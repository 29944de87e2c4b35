(** Ablation studies of design choices the paper argues about in prose,
    plus the wider protocol-family comparison. Results and interpretation
    live in EXPERIMENTS.md.

    Each ablation enumerates its grid of independent simulations, evaluates
    them through [pool] (default {!Pool.sequential}), and renders only once
    every run has finished — so the printed bytes are identical for any
    pool width. *)

(** Home placement for LU under HLRC: owner-homed blocks vs the fallback
    policies (paper §4.4's "chosen intelligently"). *)
val home_placement :
  Format.formatter ->
  ?pool:Pool.t ->
  scale:Apps.Registry.scale ->
  node_counts:int list ->
  unit ->
  unit

(** Sensitivity of the LRC/HLRC gap to network parameters: Paragon profile
    vs a modern low-latency profile (the paper's §4.8 discussion). *)
val network_sensitivity :
  Format.formatter ->
  ?pool:Pool.t ->
  scale:Apps.Registry.scale ->
  node_counts:int list ->
  unit ->
  unit

(** Coherence granularity: 4/8/16 KB pages under HLRC. *)
val page_size :
  Format.formatter ->
  ?pool:Pool.t ->
  scale:Apps.Registry.scale ->
  node_counts:int list ->
  unit ->
  unit

(** Lock service on the co-processor (the paper's §4.3 suggestion). *)
val coproc_locks :
  Format.formatter ->
  ?pool:Pool.t ->
  scale:Apps.Registry.scale ->
  node_counts:int list ->
  unit ->
  unit

(** The protocol family of the paper's §2: eager RC vs LRC vs HLRC vs AURC
    (speedups and update traffic). Reads the shared {!Matrix.t}, evaluating
    its cells first with {!Matrix.prefetch}. *)
val aurc_comparison : Format.formatter -> Matrix.t -> node_counts:int list -> unit

(** Adaptive home migration (extension) on un-hinted LU. *)
val home_migration :
  Format.formatter ->
  ?pool:Pool.t ->
  scale:Apps.Registry.scale ->
  node_counts:int list ->
  unit ->
  unit

(** Batched fault handling: elapsed time for [--fault-batch] 1/2/4/8 under
    HLRC, plus the pages actually piggybacked at N=8. *)
val fault_batch :
  Format.formatter ->
  ?pool:Pool.t ->
  scale:Apps.Registry.scale ->
  node_counts:int list ->
  unit ->
  unit
