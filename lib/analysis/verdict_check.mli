(** Cross-check: re-derive the Table 3 security matrix from taint
    provenance and compare against [Sentry_attacks.Verdict], which
    derives it from content (actually mounting each attack and
    grepping the dumps).

    The two computations share nothing but the secret-placement code,
    so agreement on every (attack, storage) cell is strong evidence
    that the shadow plumbing models the same flows the attacks
    exploit. *)

type cell = {
  attack : Sentry_attacks.Verdict.attack;
  storage : Sentry_attacks.Verdict.storage;
  verdict_safe : bool;  (** content-based: the attack was mounted *)
  analyzer_safe : bool;  (** provenance-based: taint reachability *)
}

val cell_agrees : cell -> bool

(** Every (attack, storage) cell, both ways. *)
val agreement : unit -> cell list

(** [true] iff the analyzer agrees with the mounted attacks on every
    cell. *)
val agrees : unit -> bool

(** The full matrix rendered for humans, one line per cell plus the
    overall verdict. *)
val report : unit -> string
