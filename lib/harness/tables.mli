(** Text renderings of the paper's tables and figures (the per-experiment
    index in DESIGN.md maps each to its paper artifact). All print to the
    given formatter from a shared run {!Matrix.t}; each first evaluates the
    cells it reads with {!Matrix.prefetch}, on the matrix's pool. *)

(** Table 1: benchmarks, problem sizes, sequential execution times. *)
val table1 : Format.formatter -> Matrix.t -> unit

(** Table 2: speedups for the four protocols at each machine size. *)
val table2 : Format.formatter -> Matrix.t -> node_counts:int list -> unit

(** Table 3: basic operation costs plus the derived §4.3 arithmetic
    (no simulations needed). *)
val table3 : Format.formatter -> unit

(** Table 4: average per-node operation counts, LRC vs HLRC. *)
val table4 : Format.formatter -> Matrix.t -> node_counts:int list -> unit

(** Table 5: communication traffic, LRC vs HLRC. *)
val table5 : Format.formatter -> Matrix.t -> node_counts:int list -> unit

(** Table 6: peak protocol memory vs application memory, LRC vs HLRC. *)
val table6 : Format.formatter -> Matrix.t -> node_counts:int list -> unit

(** Figure 3: mean per-node execution-time breakdowns. *)
val figure3 : Format.formatter -> Matrix.t -> node_counts:int list -> unit

(** Figure 4: per-processor breakdowns for one Water-Nsquared barrier epoch
    under LRC and HLRC. [epoch] selects the paper's index when available;
    otherwise the dominant epoch is used. *)
val figure4 : Format.formatter -> Matrix.t -> node_counts:int list -> epoch:int -> unit

(** §4.8: SOR with a zero interior, the most LRC-favourable workload. *)
val sor_zero : Format.formatter -> Matrix.t -> node_counts:int list -> unit
