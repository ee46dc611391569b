(** Deterministic discrete-event simulation kernel.

    Everything in this reproduction that is timing-sensitive — NVM access
    latency, syscall costs, lock contention, lease expiry — runs on a virtual
    clock inside a {!world}.  Logical threads are cooperative (implemented
    with OCaml effects); the scheduler always resumes the thread with the
    smallest virtual timestamp, so executions are deterministic and
    interleavings are decided by simulated time, not by the host machine. *)

(** A simulated process: the unit of isolation for permissions and coffer
    mappings.  Threads belong to a process. *)
module Proc : sig
  type t = private {
    pid : int;
    mutable uid : int;
    mutable gid : int;
    mutable groups : int list;  (** supplementary groups *)
  }

  val create : ?uid:int -> ?gid:int -> ?groups:int list -> unit -> t

  val root : t
  (** The pre-existing root process (pid 0, uid 0), used by code that runs
      outside any simulation. *)
end

type world

val create : ?seed:int64 -> unit -> world

val spawn : world -> ?proc:Proc.t -> ?at:int -> name:string -> (unit -> unit) -> unit
(** [spawn w ~name f] registers a new logical thread.  [at] is the virtual
    time at which it becomes runnable (default 0, or the current time when
    called from inside a running thread). *)

val spawn_tid :
  world -> ?proc:Proc.t -> ?at:int -> name:string -> (unit -> unit) -> int
(** Like {!spawn} but returns the new thread's id, so fault injectors can
    target it (see {!arm_kill}). *)

exception Deadlock of string
(** Raised by {!run} if threads remain blocked with no runnable thread. *)

val run : world -> unit
(** Run the simulation until all threads have finished. *)

val run_thread : ?seed:int64 -> ?proc:Proc.t -> (unit -> 'a) -> 'a
(** Convenience: create a world, run [f] in a single thread, return its
    result. *)

(** {1 Inside a thread} *)

val in_sim : unit -> bool
(** [true] iff the caller is executing inside a simulated thread. *)

val now : unit -> int
(** Current thread's virtual time in nanoseconds (0 outside a sim). *)

val self_tid : unit -> int
(** Current thread id; [-1] outside a sim. *)

val self_name : unit -> string

val self_proc : unit -> Proc.t
(** The current thread's process, or {!Proc.root} outside a sim. *)

val world_uid : unit -> int
(** A process-unique id of the active world (0 outside a sim).  Module-global
    per-thread state keyed by [(world_uid, self_tid)] can never leak between
    two worlds that happen to reuse the same thread ids — e.g. a deadline
    left behind by a killed thread (which never unwinds) must not apply to
    an unrelated thread of the next simulation. *)

val advance : int -> unit
(** Charge [ns] nanoseconds of virtual time to the current thread.  It is a
    scheduling point only when another thread is due at or before the new
    time — an equal time counts, since that thread was queued first; then
    the scheduler runs it before resuming the caller.  Otherwise the caller
    keeps running without a switch, exactly as if it had suspended and been
    picked again.  An armed kill fires here either way (see {!arm_kill}).
    No-op outside a simulation. *)

val yield : unit -> unit
(** Always suspend without advancing time, so other threads at the same
    timestamp run first. *)

val sleep_until : int -> unit
(** Advance the current thread to the given absolute virtual time (no-op if
    already past it). *)

(** {1 Thread-kill injection}

    Fault injection for chaos testing: an armed kill makes its target thread
    die at a later {!advance} call, whether or not that call switches
    threads — the simulated equivalent of
    a process being SIGKILLed mid-syscall.  Death drops the thread's
    continuation {e without unwinding}: no finalizer, no exception handler,
    no lock release runs, exactly as when a real process vanishes.  Survivors
    must cope through crash-safe on-media protocols (lease expiry, intention
    records). *)

val arm_kill : tid:int -> after:int -> unit
(** [arm_kill ~tid ~after] arms the active world so thread [tid] dies at its
    [after]-th subsequent {!advance} (clamped to at least 1).  Re-arming
    replaces the countdown; no-op outside a running world. *)

val disarm_kill : tid:int -> unit

val killed_threads : unit -> int
(** Threads killed so far in the active world (0 outside a sim). *)

val thread_alive : int -> bool
(** [thread_alive tid] is [true] iff [tid] was spawned in the active world
    and has neither returned nor been killed.  [false] outside a running
    world.  Used by dynamic analyses: a dead thread's whole history is safe
    to order before the observer (it will never act again). *)

val with_no_kill : (unit -> 'a) -> 'a
(** Run [f] with kill delivery deferred for the current thread: an armed
    kill neither fires nor counts down inside.  Used around simulated-kernel
    critical sections — a thread dying while holding the KernFS mutex would
    model a kernel panic, not a process death. *)

(** {1 Whole-process kill}

    The multi-process analogue of {!arm_kill}: SIGKILL delivered to a whole
    simulated process.  Every thread of the pid dies at its next {!advance}
    outside a {!with_no_kill} section, with the same no-unwinding semantics — survivors in other
    processes must recover through the on-media protocols, and a surviving
    thread must reap the kernel-side state (see [Kernfs.reap_process]). *)

val kill_process : pid:int -> unit
(** Arm every live thread of [pid] in the active world to die at its next
    {!advance} outside a {!with_no_kill} section (a thread inside a system
    call completes it first; one parked on a sync object dies at its first
    [advance] after waking).  No-op outside a running world. *)

val proc_alive : int -> bool
(** [proc_alive pid] is [true] iff at least one thread spawned under [pid]
    in the active world is still alive. *)

val proc_tids : int -> int list
(** All tids ever spawned under [pid] in the active world (dead or alive),
    in spawn order.  Used by kernel-side reaping to drop per-thread
    protection state. *)

(** {1 Synchronization trace}

    Scheduler-level events consumed by dynamic analyses (lib/race) that need
    the happens-before skeleton.  The hook is module-global — the sim layer
    cannot depend on its observers — and fires synchronously from the thread
    performing the event (for [S_spawn], from the {e parent}'s context). *)

type sync_event =
  | S_spawn of { parent : int; child : int }
      (** [parent] is [-1] when spawned from outside any simulated thread. *)
  | S_exit of { tid : int }  (** normal thread return *)
  | S_kill of { tid : int }
      (** death via {!arm_kill}: the thread vanished without unwinding *)
  | S_mutex_lock of { tid : int; id : int }
  | S_mutex_unlock of { tid : int; id : int }

val set_sync_hook : (sync_event -> unit) -> unit
val clear_sync_hook : unit -> unit

(** {1 Synchronization} *)

module Mutex : sig
  type t

  val create : ?name:string -> unit -> t
  val lock : t -> unit
  val try_lock : t -> bool
  val unlock : t -> unit
  val with_lock : t -> (unit -> 'a) -> 'a
  val locked : t -> bool

  val id : t -> int
  (** Unique id of this mutex, as it appears in {!sync_event}. *)
end

module Rwlock : sig
  type t

  val create : ?name:string -> unit -> t
  val rdlock : t -> unit
  val wrlock : t -> unit
  val unlock : t -> unit
  val with_rd : t -> (unit -> 'a) -> 'a
  val with_wr : t -> (unit -> 'a) -> 'a
end

(** A serially-reusable resource (e.g. a memory channel's bandwidth): callers
    reserve it for a duration and are advanced past the end of their slot. *)
module Resource : sig
  type t

  val create : ?name:string -> unit -> t

  val use : t -> int -> unit
  (** [use r ns] reserves the resource for [ns] nanoseconds starting at the
      earliest instant it is free, and advances the calling thread to the end
      of the reservation.  No-op outside a simulation. *)

  val busy_until : t -> int
end

(** {1 Deterministic pseudo-random numbers (splitmix64)} *)
module Rng : sig
  type t

  val create : int64 -> t
  val next : t -> int64
  val int : t -> int -> int
  (** [int t bound] uniform in [0, bound). *)

  val float : t -> float -> float
  val bool : t -> bool
  val shuffle : t -> 'a array -> unit

  val get_state : t -> int64
  (** Raw splitmix64 state, for snapshot/replay of a PRNG stream. *)

  val set_state : t -> int64 -> unit
end

val rng : unit -> Rng.t
(** The current world's RNG (a fresh standalone RNG outside a sim). *)

val live_threads : unit -> int
(** Number of live threads in the active world (1 outside a sim); used by
    cost models that scale with concurrency. *)

(** {1 Statistics helpers used by the benchmark harnesses} *)
module Stats : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val min : t -> float
  val max : t -> float
  val total : t -> float
end
