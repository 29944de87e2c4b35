(** Differential soundness under injected faults: the six soak artifacts as
    scenario lists over one runner.

    A scenario names a fault-free twin configuration and derives its faulted
    configuration(s) from the twin's report and trace. Faults may change
    timing and traffic, never results: every run must pass the
    application's own verification against its sequential reference, and
    every faulted run must end with the twin's shared-memory digest. Runs
    use 4 nodes, and node faults always hit node 3. Two placement rules
    serve all node faults: the sync tail (after the victim's last barrier
    arrival and the twin's last lock handoff) for kills and the detector's
    faults, and a mid-run window for partitions and pauses.

    Work is split into (protocol x application) cells run through a
    {!Pool}; rows come back in the sequential order, so output is identical
    at any pool width. A run that deadlocks or fails verification does not
    abort the artifact: its row says how it failed and prints the
    {!replay_line} of the failed run. *)

(** The artifacts, in bench order: [chaos-soak] (drops, duplicates, jitter
    and stragglers under three fault seeds, every protocol), [kill-soak]
    (a tail kill at K = 2 under both replication schemes), [availability]
    (replication traffic and overhead at K = 1, 2, 3, plus recovery stalls
    of a tail kill), [partition-soak] (a lone node and an even split cut
    off mid-run, under both detectors), [suspicion-soak] (a replicated home
    paused past the heartbeat timeout) and [detector] (LU on HLRC and LRC:
    detection latency of a kill vs false deposes of a 2 ms pause, per
    suspicion timeout). *)
val names : string list

(** [report ppf ?pool ?scale name] runs artifact [name] (at [scale], default
    [Test], on [pool], default {!Pool.sequential}), prints its table(s) and
    returns whether every cell finished and passed, including the
    table-wide checks: no impossible detector outcome in [partition-soak],
    monotone latency and false deposes in [detector].
    @raise Invalid_argument if [name] is not in {!names}. *)
val report :
  Format.formatter -> ?pool:Pool.t -> ?scale:Apps.Registry.scale -> string -> bool

(** [replay_line ~scale ~app cfg] is the [svm_run] command line that
    replays a run of registry application [app] under [cfg]. It spells out
    every knob the runner sets, floats as [%.17g], so it does not depend on
    the CLI's defaults, and each scheduled fault as one [--kill],
    [--pause] or [--partition] flag in {!Machine.Chaos.to_string}'s
    spelling, in schedule order. *)
val replay_line : scale:Apps.Registry.scale -> app:string -> Svm.Config.t -> string
