// Package qrel computes the reliability of database queries on
// unreliable databases, implementing the PODS 1998 paper "The
// Complexity of Query Reliability" by Grädel, Gurevich and Hirsch.
//
// An unreliable database D = (A, mu) is an observed finite relational
// database A together with an error probability mu(Rā) for each ground
// fact. D induces a probability space over possible "actual" databases
// B; the reliability of a k-ary query psi is
//
//	R_psi(D) = 1 − H_psi(D) / n^k,
//
// where H_psi(D) is the expected Hamming distance between the query
// answer on the observed and the actual database.
//
// The package exposes one engine per complexity result in the paper —
// exact polynomial-time computation for quantifier-free queries
// (Proposition 3.1), exact exponential world enumeration for arbitrary
// queries (Theorem 4.2), exact BDD-based and FPTRAS Karp–Luby lineage
// evaluation for existential/universal queries (Theorems 5.2–5.4,
// Corollary 5.5), and absolute-error Monte Carlo for every
// polynomial-time query (Theorem 5.12) — plus a dispatcher that picks
// the cheapest sound engine for the query's fragment.
//
// Quick start:
//
//	voc := qrel.MustVocabulary(qrel.RelSym{Name: "E", Arity: 2})
//	s := qrel.MustStructure(4, voc)
//	s.MustAdd("E", 0, 1)
//	db := qrel.NewDB(s)
//	db.MustSetError(qrel.GroundAtom{Rel: "E", Args: qrel.Tuple{0, 1}}, big.NewRat(1, 10))
//	q := qrel.MustParseQuery("exists x y . E(x,y)", voc)
//	res, err := qrel.Reliability(context.Background(), db, q, qrel.Options{})
//	// res.R is exact when res.Guarantee == qrel.Exact.
//
// The subpackages under internal/ contain the substrates (relational
// structures, propositional counting, BDDs, the Karp–Luby algorithms,
// the hardness reductions of Proposition 3.2 and Lemma 5.9, and the
// Section 6 metafinite model); this package is the stable surface.
package qrel

import (
	"context"
	"io"

	"qrel/internal/checkpoint"
	"qrel/internal/core"
	"qrel/internal/logic"
	"qrel/internal/rel"
	"qrel/internal/store"
	"qrel/internal/unreliable"
)

// Relational substrate.
type (
	// RelSym is a relation symbol (name and arity).
	RelSym = rel.RelSym
	// Vocabulary is a finite list of relation symbols and constants.
	Vocabulary = rel.Vocabulary
	// Structure is a finite relational database.
	Structure = rel.Structure
	// Tuple is a tuple of universe elements.
	Tuple = rel.Tuple
	// GroundAtom is a ground fact R(ā).
	GroundAtom = rel.GroundAtom
)

// Unreliable databases.
type (
	// DB is an unreliable database (A, mu).
	DB = unreliable.DB
)

// Queries.
type (
	// Query is a parsed first- or second-order query.
	Query = logic.Formula
	// Class is the query-language classification of the paper.
	Class = logic.Class
)

// Reliability computation.
type (
	// Options configures the engines.
	Options = core.Options
	// Result is the outcome of a reliability computation.
	Result = core.Result
	// Guarantee describes a result's error semantics.
	Guarantee = core.Guarantee
	// Engine selects a specific engine in ReliabilityWith.
	Engine = core.Engine
	// TupleError is a per-answer-tuple expected error.
	TupleError = core.TupleError
	// AbsoluteResult is the outcome of an absolute-reliability decision.
	AbsoluteResult = core.AbsoluteResult
	// Budget bounds the resources one computation may consume.
	Budget = core.Budget
	// FallbackStep is one abandoned rung of the degradation ladder.
	FallbackStep = core.FallbackStep
)

// Runtime error taxonomy: every error leaving Reliability or
// ReliabilityWith matches (errors.Is) exactly one of these sentinels or
// is an input-validation error.
var (
	// ErrCanceled: the context was canceled or a deadline passed.
	ErrCanceled = core.ErrCanceled
	// ErrBudgetExceeded: a resource budget was exhausted.
	ErrBudgetExceeded = core.ErrBudgetExceeded
	// ErrInfeasible: no engine covers the query's fragment at this size.
	ErrInfeasible = core.ErrInfeasible
	// ErrEngineFailed: an engine crashed and was contained.
	ErrEngineFailed = core.ErrEngineFailed
	// ErrCorruptCheckpoint: every snapshot in a checkpoint store failed
	// its integrity check (torn write, bit rot, or truncation).
	ErrCorruptCheckpoint = checkpoint.ErrCorruptCheckpoint
	// ErrCheckpointMismatch: a checkpoint was taken by a different
	// computation (engine, seed, accuracy, or query differ) and resuming
	// from it would be statistically meaningless.
	ErrCheckpointMismatch = core.ErrCheckpointMismatch
)

// Checkpoint & resume: attach a CheckpointConfig to Options.Checkpoint
// and a Monte Carlo engine periodically snapshots its estimator state —
// sample counts plus the PRNG stream position — into the store. A run
// resumed from the store consumes exactly the remaining portion of the
// original sample stream, so for a fixed Options.Seed the resumed
// result is bit-identical to one that was never interrupted.
type (
	// CheckpointStore is a crash-safe snapshot store: atomic
	// write-temp+fsync+rename commits, CRC-verified loads, keep-last-N
	// retention.
	CheckpointStore = checkpoint.Store
	// CheckpointOptions configures a CheckpointStore.
	CheckpointOptions = checkpoint.Options
	// CheckpointConfig attaches a store to one computation via
	// Options.Checkpoint.
	CheckpointConfig = core.CheckpointConfig
)

// OpenCheckpointStore opens (creating the directory if needed) a
// crash-safe snapshot store.
func OpenCheckpointStore(dir string, opts CheckpointOptions) (*CheckpointStore, error) {
	return checkpoint.Open(dir, opts)
}

// Guarantee levels.
const (
	Exact         = core.Exact
	RelativeError = core.RelativeError
	AbsoluteError = core.AbsoluteError
)

// Engine names for ReliabilityWith.
const (
	EngineAuto        = core.EngineAuto
	EngineQFree       = core.EngineQFree
	EngineWorldEnum   = core.EngineWorldEnum
	EngineLineageBDD  = core.EngineLineageBDD
	EngineLineageKL   = core.EngineLineageKL
	EngineLineageKL53 = core.EngineLineageKL53
	EngineMonteCarlo  = core.EngineMonteCarlo
	EngineMCDirect    = core.EngineMCDirect
	EngineSafePlan    = core.EngineSafePlan
	EngineMCRare      = core.EngineMCRare
)

// Evaluation modes of the sampling engines (Options.Eval,
// Result.EvalMode). Compiled evaluation is bit-identical to the
// interpreter — same estimates, checkpoints, and lane digests for a
// fixed seed — so the mode is purely a throughput knob.
const (
	EvalAuto        = core.EvalAuto
	EvalCompiled    = core.EvalCompiled
	EvalInterpreted = core.EvalInterpreted
)

// KnownEvalMode reports whether m names an evaluation mode (the empty
// string reads as EvalAuto).
func KnownEvalMode(m string) bool { return core.KnownEvalMode(m) }

// Query classes.
const (
	ClassQuantifierFree = logic.ClassQuantifierFree
	ClassConjunctive    = logic.ClassConjunctive
	ClassExistential    = logic.ClassExistential
	ClassUniversal      = logic.ClassUniversal
	ClassFirstOrder     = logic.ClassFirstOrder
	ClassSecondOrder    = logic.ClassSecondOrder
)

// NewVocabulary builds a vocabulary from relation symbols.
func NewVocabulary(rels ...RelSym) (*Vocabulary, error) { return rel.NewVocabulary(rels...) }

// MustVocabulary is NewVocabulary that panics on error.
func MustVocabulary(rels ...RelSym) *Vocabulary { return rel.MustVocabulary(rels...) }

// NewStructure creates a structure with universe {0..n-1}.
func NewStructure(n int, voc *Vocabulary) (*Structure, error) { return rel.NewStructure(n, voc) }

// MustStructure is NewStructure that panics on error.
func MustStructure(n int, voc *Vocabulary) *Structure { return rel.MustStructure(n, voc) }

// NewDB wraps an observed database with zero error probabilities.
func NewDB(s *Structure) *DB { return unreliable.New(s) }

// ParseDB reads an unreliable database in the qrel text format.
func ParseDB(r io.Reader) (*DB, error) { return unreliable.ParseDB(r) }

// WriteDB writes an unreliable database in the qrel text format.
func WriteDB(w io.Writer, db *DB) error { return unreliable.WriteDB(w, db) }

// ParseQuery parses a query; identifiers matching a constant of voc
// parse as constants (voc may be nil).
func ParseQuery(src string, voc *Vocabulary) (Query, error) { return logic.Parse(src, voc) }

// MustParseQuery is ParseQuery that panics on error.
func MustParseQuery(src string, voc *Vocabulary) Query { return logic.MustParse(src, voc) }

// Classify returns the most restricted syntactic class containing q.
func Classify(q Query) Class { return logic.Classify(q) }

// KnownEngine reports whether e names a selectable engine (EngineAuto
// and the empty string included).
func KnownEngine(e Engine) bool { return core.KnownEngine(e) }

// Engines returns every selectable engine name (EngineAuto excluded).
func Engines() []Engine { return core.Engines() }

// Reliability computes the reliability of q on db with the dispatcher
// described in the package documentation. The computation honors ctx
// and opts.Budget: cancellation and budget exhaustion surface as
// ErrCanceled/ErrBudgetExceeded, anytime Monte Carlo engines instead
// return a partial Result with Degraded set and an honestly widened
// Eps, and engines that fail mid-ladder are recorded in
// Result.FallbackTrail.
func Reliability(ctx context.Context, db *DB, q Query, opts Options) (Result, error) {
	return core.Reliability(ctx, db, q, opts)
}

// ReliabilityWith runs a specific engine.
func ReliabilityWith(ctx context.Context, engine Engine, db *DB, q Query, opts Options) (Result, error) {
	return core.ReliabilityWith(ctx, engine, db, q, opts)
}

// ExpectedErrorPerTuple computes the exact expected error of every
// answer tuple by world enumeration, under ctx and opts.Budget.
func ExpectedErrorPerTuple(ctx context.Context, db *DB, q Query, opts Options) ([]TupleError, error) {
	return core.ExpectedErrorPerTuple(ctx, db, q, opts)
}

// AbsoluteReliability decides whether R_q(db) = 1 (Definition 5.6),
// under ctx and opts.Budget.
func AbsoluteReliability(ctx context.Context, db *DB, q Query, opts Options) (AbsoluteResult, error) {
	return core.AbsoluteReliability(ctx, db, q, opts)
}

// Answer evaluates q on a concrete database, returning the satisfying
// tuples over the free variables.
func Answer(s *Structure, q Query) ([]Tuple, error) { return logic.Answer(s, q) }

// Sensitivity analysis.
type (
	// Sensitivity reports how one uncertain atom drives a query's risk.
	Sensitivity = core.Sensitivity
)

// AtomSensitivity computes the conditional expected errors of a query
// given each truth value of one uncertain atom, under ctx and
// opts.Budget.
func AtomSensitivity(ctx context.Context, db *DB, q Query, atom GroundAtom, opts Options) (Sensitivity, error) {
	return core.AtomSensitivity(ctx, db, q, atom, opts)
}

// RankSensitivities ranks all uncertain atoms by how strongly they
// drive the query's expected error (decreasing spread), under ctx and
// opts.Budget.
func RankSensitivities(ctx context.Context, db *DB, q Query, opts Options) ([]Sensitivity, error) {
	return core.RankSensitivities(ctx, db, q, opts)
}

// AnswerModality holds the certain and possible answers of a query.
type AnswerModality = core.AnswerModality

// PossibleCertainAnswers computes the certain answers (in every world)
// and possible answers (in some world) of q on db by world enumeration,
// under ctx and opts.Budget.
func PossibleCertainAnswers(ctx context.Context, db *DB, q Query, opts Options) (AnswerModality, error) {
	return core.PossibleCertainAnswers(ctx, db, q, opts)
}

// Paged storage engine: crash-safe heap files with checksummed pages,
// a budgeted buffer pool, and open-time journal recovery.
type (
	// Store is an open paged database file plus its intent journal.
	Store = store.Store
	// StoreOptions configures page size and buffer-pool budget.
	StoreOptions = store.Options
	// StoreVerifyStats summarises a full-file verification pass.
	StoreVerifyStats = store.VerifyStats
)

// ErrCorruptPage is returned (wrapped) whenever a page fails its
// checksum or structural validation; detect it with errors.Is.
var ErrCorruptPage = store.ErrCorruptPage

// CreateStore writes a new empty store file for the vocabulary and
// universe of a.
func CreateStore(path string, a *Structure, opts StoreOptions) (*Store, error) {
	return store.Create(path, a, opts)
}

// OpenStore opens an existing store file, first recovering its
// journal: complete commit records are replayed, torn tails rolled
// back, so a crash at any byte offset leaves a consistent database.
func OpenStore(path string, opts StoreOptions) (*Store, error) {
	return store.Open(path, opts)
}

// BuildStore ingests an unreliable database into a new store file,
// committing every batch tuples (0 = one final commit). A database
// reloaded from the store is bit-identical input to every engine.
func BuildStore(path string, db *DB, opts StoreOptions, batch int) error {
	return store.BuildFromDB(path, db, opts, batch, nil)
}
