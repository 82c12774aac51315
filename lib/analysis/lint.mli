(** [groupsafe_lint]'s syntactic engine and the shared finding/suppression
    core: repo-specific determinism, parallelism and hygiene invariants
    enforced over parsetrees (cheap, runs on any file that parses). The
    typed tier ({!Typed_lint}) walks [.cmt] typedtrees with the same rule
    catalogue, finding type and suppression machinery, and sees through the
    aliasing/inference blind spots documented in docs/LINTING.md.

    Rule catalogue, one bad/good example per rule, and the suppression
    policy live in docs/LINTING.md. Findings inside a lexical scope carrying
    a [[@lint.allow "rule-id" "reason"]] attribute (expression, let-binding
    [[@@...]], or file-level floating [[@@@...]]) are suppressed; the reason
    string is mandatory and an unknown rule id is itself a finding, so every
    suppression stays reviewable. *)

type finding = { file : string; line : int; rule : string; message : string }

type allow = {
  a_file : string;
  a_line : int;  (** line of the [[@lint.allow]] attribute itself *)
  a_rule : string;
  a_reason : string;
  mutable a_used : bool;  (** set when the allow suppresses a finding *)
}
(** A well-formed suppression site. Both tiers record every allow they walk
    past and flip [a_used] on first use, feeding the [L-unused-allow]
    staleness sweep ({!unused_allows}). *)

val rules : (string * string) list
(** [(id, summary)] for every rule either walker can emit, in catalogue
    order: [D-*] determinism, [P-*] parallelism, [H-*] hygiene, [T-*] typed
    tier, [L-*] lint-meta (malformed/stale suppressions, unreadable
    files). *)

val suppressible : string -> bool
(** Rules a [[@lint.allow]] may name: everything except the [L-*] meta
    rules, which would otherwise be able to hide their own diagnostics. *)

val covers : allow:string -> rule:string -> bool
(** [covers ~allow ~rule] — does an allow naming [allow] suppress a finding
    of [rule]? Identity, plus the syntactic/typed refinement pairs
    ([D-hashtbl-iter]~[T-hashtbl-iter], [D-float-eq]~[T-float-eq]) in both
    directions, so a site firing under both tiers needs one annotation. *)

val parse_allows :
  file:string -> Parsetree.attributes -> allow list * finding list
(** [parse_allows ~file attrs] extracts the well-formed [[@lint.allow]]
    suppressions from [attrs] and a meta finding ([L-unknown-rule] /
    [L-bad-allow]) for each malformed one. The typedtree carries the same
    [Parsetree.attribute] values at the same locations, so {!Typed_lint}
    reuses this directly. *)

val unused_allows : allow list -> finding list
(** [unused_allows all] is the [L-unused-allow] finding list for the
    suppressions in [all] that never fired, after grouping by (file, line,
    rule id) so the two tiers' separate sightings of one attribute count as
    one. Only meaningful for a full syntactic+typed run. *)

val check_source : file:string -> lib:bool -> string -> finding list
(** [check_source ~file ~lib src] lints the implementation source [src].
    [file] is used for reporting only; [lib] enables the library-only
    rules ([P-toplevel-mutable]). *)

val lint_file : lib:bool -> string -> finding list * allow list
(** [lint_file ~lib path] reads and lints [path]; when [lib] is set it also
    requires a sibling [.mli] ([H-missing-mli]). *)

val check_file : lib:bool -> string -> finding list
(** [check_file ~lib path] is [fst (lint_file ~lib path)]. *)

val compare_finding : finding -> finding -> int
(** Report order: file, then line, then rule id, then message. *)

val pp : Format.formatter -> finding -> unit
(** Prints [file:line: [rule-id] message]. *)
