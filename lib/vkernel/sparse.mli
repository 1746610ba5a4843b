(** Sparse perturbation plans, shared by {!Explore} decision traces and
    {!Fault} plans: lists of steps, each a perturbation tagged with the
    index of the query (the n-th decision or injection point of a run)
    it applies at.  A seeded run samples the steps, a replay applies them
    at the same indices, a failing plan shrinks by delta debugging, and
    a plan file holds one [KEYWORD INDEX [ARG]] step per line after a
    two-line [#] header. *)

(** The splitmix64-style PRNG seeded runs sample from: they must
    reproduce forever, so the stream must not depend on [Stdlib.Random]. *)
module Rng : sig
  type t

  val make : int -> t

  (** [below r n] is uniform in [\[0, n)]; 0 when [n <= 1]. *)
  val below : t -> int -> int

  (** [chance r permil] is true with probability [permil]/1000. *)
  val chance : t -> int -> bool
end

(** The FNV offset basis and one non-negative mixing step, for content
    fingerprints. *)
val fnv_basis : int

val fnv : int -> int -> int

(** An instance: its step record, the perturbation it carries, and the
    perturbation's shrink step, fingerprint code and file form. *)
module type STEP = sig
  type value
  type step

  val index : step -> int
  val value : step -> value
  val make : int -> value -> step

  (** The next smaller value to try while shrinking, if any. *)
  val smaller : value -> value option

  (** A distinct integer per value. *)
  val code : value -> int

  (** A value's file keyword and optional argument, and back. *)
  val print : value -> string * int option

  val parse : string * int option -> value option

  (** File wording: a step is a [noun], the file a [file], the index a
      [point] number ("decision", "trace", "preemption-point"). *)
  val noun : string

  val file : string
  val point : string
end

module Make (S : STEP) : sig
  (** A replay position in a plan sorted by index. *)
  type cursor

  val cursor : S.step list -> cursor

  (** [next c q] is the step at query [q], if any.  Queries must come in
      ascending order. *)
  val next : cursor -> int -> S.step option

  val fingerprint : S.step list -> int

  (** [shrink ~run steps] minimizes a failing plan: drop chunks of steps,
      halving the chunk size down to single steps, then apply
      [S.smaller] to the survivors while [run] still reports failure.
      Returns the shrunk plan and the [run] calls spent, at most
      [budget] (default 200). *)
  val shrink :
    run:(S.step list -> bool) -> ?budget:int -> S.step list -> S.step list * int

  val pp : Format.formatter -> S.step list -> unit
  val save : string -> S.step list -> unit

  (** Raises [Failure "<path>..."] on a malformed or unreadable file. *)
  val load : string -> S.step list

  (** {!load}, also raising [Failure] when the file holds no steps: an
      empty plan would silently replay the unperturbed run. *)
  val load_replay : string -> S.step list
end
