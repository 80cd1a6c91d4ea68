(** The device-lock path (§2, §7): freed-page barrier, page-table
    walk + in-place page encryption, shared-page policy, young-bit
    clearing, un-schedulable parking, masked L2 flush. *)

type stats = {
  pages_encrypted : int;
  bytes_encrypted : int;
  pages_skipped_shared : int;  (** pages left alone by the share policy *)
  freed_pages_zeroed : int;  (** frames the zeroing barrier scrubbed *)
  elapsed_ns : float;
  energy_j : float;  (** AES energy attributable to this lock pass *)
}

(** [run ~backend pc system ~sensitive ~background] executes the full
    lock sequence: freed-page barrier, page-table walk, young-bit
    clearing, parking, masked L2 flush.  Processes for which
    [background] returns [true] stay schedulable (the encrypted-DRAM
    pager will serve them); the rest are parked on the un-schedulable
    queue.  With [?journal], walk progress is journaled for crash
    recovery; the walk is idempotent (keyed off PTE bits and guarded
    parking), so recovery can simply re-run it.

    [Batched] and [Offload] gather every page to encrypt, sort by
    frame and push the whole batch through
    [Page_crypt.encrypt_batch ~backend], with journal records
    coalesced per [Lock_journal.coalesce] pages; their DRAM, PTE and
    taint evolution is bit-identical, only time and energy differ.
    [No_access] revokes each sensitive page's mapping instead of
    encrypting it (per-page journal records): DRAM keeps the
    cleartext — cold boot and DMA succeed against it by design, and
    the Table-3 checkers flag exactly that.  Its
    [stats.bytes_encrypted] is 0 and [stats.pages_encrypted] counts
    protected (revoked) pages. *)
val run :
  ?journal:Lock_journal.t ->
  backend:Backend.kind ->
  Page_crypt.t ->
  System.t ->
  sensitive:Sentry_kernel.Process.t list ->
  background:(Sentry_kernel.Process.t -> bool) ->
  stats

(** The page-at-a-time reference walk (same sequence, per-page
    journal records).  No backend or flag reaches it: it exists as the
    reference the batched [run] is differentially tested against. *)
val run_per_page :
  ?journal:Lock_journal.t ->
  Page_crypt.t ->
  System.t ->
  sensitive:Sentry_kernel.Process.t list ->
  background:(Sentry_kernel.Process.t -> bool) ->
  stats
