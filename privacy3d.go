// Package privacy3d is a Go implementation of the three-dimensional
// conceptual framework for database privacy of Domingo-Ferrer (SDM/VLDB
// workshop 2007), together with every technology class the framework
// covers: statistical disclosure control (k-anonymity, microaggregation,
// generalization, noise addition, rank swapping, interactive query
// control), privacy-preserving data mining (non-cryptographic and
// cryptographic, including secure multiparty computation over secret
// shares and Paillier encryption), and private information retrieval
// (information-theoretic and computational).
//
// The package is a facade: it re-exports the stable public API of the
// internal subsystem packages so downstream users program against a single
// import path.
//
//	release, rep, err := privacy3d.Microaggregate(data, privacy3d.MicroaggOptions(3))
//	eval, _ := privacy3d.NewEvaluator(privacy3d.DefaultEvalConfig())
//	table, _ := eval.Table2()
//
// The three privacy dimensions — whose privacy a technology protects — are
// Respondent (the individuals behind the records), Owner (the holder of the
// dataset) and User (the issuer of queries). See DESIGN.md for the full
// system inventory and EXPERIMENTS.md for the paper-vs-measured record.
package privacy3d

import (
	"context"
	"math/rand/v2"
	"net/http"

	"privacy3d/internal/anonymity"
	"privacy3d/internal/core"
	"privacy3d/internal/dataset"
	"privacy3d/internal/dp"
	"privacy3d/internal/generalize"
	"privacy3d/internal/hippocratic"
	"privacy3d/internal/microagg"
	"privacy3d/internal/mining"
	"privacy3d/internal/noise"
	"privacy3d/internal/pir"
	"privacy3d/internal/randresp"
	"privacy3d/internal/risk"
	"privacy3d/internal/rulehide"
	"privacy3d/internal/sdc"
	"privacy3d/internal/sdcquery"
	"privacy3d/internal/smc"
	"privacy3d/internal/swap"
)

// --- data model ---------------------------------------------------------

// Dataset is the shared tabular microdata model.
type Dataset = dataset.Dataset

// Attribute describes one column: name, role and kind.
type Attribute = dataset.Attribute

// Attribute roles (whose disclosure function a column has).
const (
	Identifier      = dataset.Identifier
	QuasiIdentifier = dataset.QuasiIdentifier
	Confidential    = dataset.Confidential
	NonConfidential = dataset.NonConfidential
)

// Attribute kinds (value domains).
const (
	Numeric = dataset.Numeric
	Ordinal = dataset.Ordinal
	Nominal = dataset.Nominal
)

// NewDataset creates an empty dataset with the given schema.
func NewDataset(attrs ...Attribute) *Dataset { return dataset.New(attrs...) }

// Dataset1 and Dataset2 are the paper's Table 1 toy patient datasets.
func Dataset1() *Dataset { return dataset.Dataset1() }

// Dataset2 returns the non-k-anonymous Table 1 dataset (right side).
func Dataset2() *Dataset { return dataset.Dataset2() }

// TrialConfig parameterises SyntheticTrial.
type TrialConfig = dataset.TrialConfig

// SyntheticTrial generates a clinical-trial population like Table 1's.
func SyntheticTrial(cfg TrialConfig) *Dataset { return dataset.SyntheticTrial(cfg) }

// NewRand returns the deterministic PRNG used throughout the library.
func NewRand(seed uint64) *rand.Rand { return dataset.NewRand(seed) }

// --- the framework (the paper's contribution) ---------------------------

// Dimension identifies whose privacy is considered.
type Dimension = core.Dimension

// The three dimensions.
const (
	Respondent = core.Respondent
	Owner      = core.Owner
	User       = core.User
)

// Grade is the paper's qualitative scale (none … high).
type Grade = core.Grade

// Grades of Table 2.
const (
	GradeNone       = core.None
	GradeLow        = core.Low
	GradeMedium     = core.Medium
	GradeMediumHigh = core.MediumHigh
	GradeHigh       = core.High
)

// Class is a Table 2 technology class.
type Class = core.Class

// The eight technology classes of Table 2, plus the DP extension row.
const (
	ClassSDC                    = core.SDC
	ClassUseSpecificPPDM        = core.UseSpecificPPDM
	ClassGenericPPDM            = core.GenericPPDM
	ClassCryptoPPDM             = core.CryptoPPDM
	ClassPIR                    = core.PIR
	ClassSDCPlusPIR             = core.SDCPlusPIR
	ClassUseSpecificPPDMPlusPIR = core.UseSpecificPPDMPlusPIR
	ClassGenericPPDMPlusPIR     = core.GenericPPDMPlusPIR
	ClassDP                     = core.DP
)

// Classes lists the Table 2 rows in paper order.
func Classes() []Class { return core.Classes() }

// AllClasses lists every implemented class: the paper's eight rows plus DP.
func AllClasses() []Class { return core.AllClasses() }

// PaperTable2 returns the paper's published grades.
func PaperTable2() map[Class]core.Grades { return core.PaperTable2() }

// ReferenceTable2 returns the paper's grades extended with this
// repository's reference grades for the DP row.
func ReferenceTable2() map[Class]core.Grades { return core.ReferenceTable2() }

// EvalConfig parameterises the empirical evaluator; Evaluator measures the
// three dimensions of each technology class by attack simulation.
type (
	EvalConfig  = core.EvalConfig
	Evaluator   = core.Evaluator
	Measurement = core.Measurement
	Scores      = core.Scores
	GradeSet    = core.Grades
)

// DefaultEvalConfig returns the calibration used by EXPERIMENTS.md.
func DefaultEvalConfig() EvalConfig { return core.DefaultEvalConfig() }

// NewEvaluator builds the evaluation workload.
func NewEvaluator(cfg EvalConfig) (*Evaluator, error) { return core.NewEvaluator(cfg) }

// NewEvaluatorFor runs the three-dimensional attack battery on your own
// dataset (≥ 100 records, ≥ 2 numeric quasi-identifiers, ≥ 1 numeric
// confidential attribute).
func NewEvaluatorFor(d *Dataset, cfg EvalConfig) (*Evaluator, error) {
	return core.NewEvaluatorFor(d, cfg)
}

// QuadrantResult is a measured Section 2–4 independence scenario.
type QuadrantResult = core.QuadrantResult

// Section2Scenarios, Section3Scenarios and Section4Scenarios reproduce the
// paper's worked independence arguments.
func Section2Scenarios() ([]QuadrantResult, error) { return core.Section2Scenarios() }

// Section3Scenarios reproduces the respondent-vs-user scenarios, including
// the PIR COUNT/AVG attack of Section 3.
func Section3Scenarios() ([]QuadrantResult, error) { return core.Section3Scenarios() }

// Section4Scenarios reproduces the owner-vs-user scenarios.
func Section4Scenarios() ([]QuadrantResult, error) { return core.Section4Scenarios() }

// UtilityRow and UtilityVsDimensions implement experiment E-X1 (utility
// impact of protecting more dimensions, the paper's Section 6 question).
type UtilityRow = core.UtilityRow

// UtilityVsDimensions measures information loss per protected dimension.
func UtilityVsDimensions(k int, seed uint64) ([]UtilityRow, error) {
	return core.UtilityVsDimensions(k, seed)
}

// Pipeline composes masking stages and an access mode into a candidate
// holistic solution; Stage is one masking step; PipelineReport is its
// three-dimensional evaluation.
type (
	Pipeline       = core.Pipeline
	Stage          = core.Stage
	PipelineReport = core.PipelineReport
)

// RecommendedPipeline returns the paper's Section 6 recipe
// (k-anonymization + PPDM noise + PIR).
func RecommendedPipeline(k int) Pipeline { return core.RecommendedPipeline(k) }

// --- anonymity properties ------------------------------------------------

// AnonymityReport summarises k-anonymity, p-sensitivity, l-diversity and
// t-closeness of a dataset.
type AnonymityReport = anonymity.Report

// AnalyzeAnonymity computes an AnonymityReport over the dataset's declared
// quasi-identifiers and confidential attributes.
func AnalyzeAnonymity(d *Dataset) AnonymityReport { return anonymity.Analyze(d) }

// KAnonymity returns the anonymity level of d over cols.
func KAnonymity(d *Dataset, cols []int) int { return anonymity.K(d, cols) }

// IsPSensitiveKAnonymous checks p-sensitive k-anonymity.
func IsPSensitiveKAnonymous(d *Dataset, cols, confCols []int, k, p int) bool {
	return anonymity.IsPSensitiveKAnonymous(d, cols, confCols, k, p)
}

// EnforcePSensitive upgrades a release to p-sensitive k-anonymity by
// merging violating equivalence classes (paper footnote 3).
func EnforcePSensitive(d *Dataset, k, p int) (*Dataset, int, error) {
	return anonymity.EnforcePSensitive(d, k, p)
}

// --- unified protection-method registry -----------------------------------

// SDCMethod is one registered protection method: a self-describing schema
// plus a context-aware Apply. SDCParams carries the uniform parameters and
// SDCReport the uniform outcome of any method.
type (
	SDCMethod = sdc.Method
	SDCSchema = sdc.Schema
	SDCParams = sdc.Params
	SDCReport = sdc.Report
)

// SDCMethods lists every registered method sorted by name — the eight
// technology classes of the paper are all reachable here.
func SDCMethods() []SDCMethod { return sdc.List() }

// SDCMethodNames lists the registered method names.
func SDCMethodNames() []string { return sdc.Names() }

// LookupSDCMethod resolves a registered method by name.
func LookupSDCMethod(name string) (SDCMethod, error) { return sdc.Lookup(name) }

// Protect masks d with the named registered method. Cancelling ctx stops the
// masking at its next chunk boundary; randomized methods require a non-nil
// rng.
func Protect(ctx context.Context, method string, d *Dataset, p SDCParams, rng *rand.Rand) (*Dataset, SDCReport, error) {
	return sdc.Apply(ctx, method, d, p, rng)
}

// ProtectSeed is Protect with a deterministic rng derived from seed — the
// same call always produces the same release bytes.
func ProtectSeed(ctx context.Context, method string, d *Dataset, p SDCParams, seed uint64) (*Dataset, SDCReport, error) {
	return sdc.ApplySeed(ctx, method, d, p, seed)
}

// SDCMethodTable renders the registry as a Markdown table (the generated
// "Protection methods" documentation).
func SDCMethodTable() string { return sdc.MarkdownTable() }

// --- masking methods ------------------------------------------------------

// MicroaggResult reports the groups and information loss of a
// microaggregation run.
type MicroaggResult = microagg.Result

// MicroaggOpts configures Microaggregate.
type MicroaggOpts = microagg.Options

// MicroaggOptions returns conventional defaults for group size k.
func MicroaggOptions(k int) MicroaggOpts { return microagg.NewOptions(k) }

// Microaggregate masks quasi-identifiers by MDAV microaggregation; the
// result is k-anonymous on the masked columns.
func Microaggregate(d *Dataset, opt MicroaggOpts) (*Dataset, MicroaggResult, error) {
	return microagg.Mask(d, opt)
}

// MicroaggregateVariable masks with V-MDAV variable-size groups (gamma
// controls extension eagerness; 0.2 is a common default).
func MicroaggregateVariable(d *Dataset, opt MicroaggOpts, gamma float64) (*Dataset, MicroaggResult, error) {
	return microagg.MaskVariable(d, opt, gamma)
}

// MicroaggregateProjection masks via optimal univariate partitioning along
// the first principal component (the projected variant of [10]).
func MicroaggregateProjection(d *Dataset, opt MicroaggOpts) (*Dataset, MicroaggResult, error) {
	return microagg.MaskProjection(d, opt)
}

// Condense masks columns by Aggarwal–Yu condensation (synthetic records
// preserving group moments).
func Condense(d *Dataset, cols []int, k int, rng *rand.Rand) (*Dataset, error) {
	return microagg.Condense(d, cols, k, rng)
}

// AddNoise masks numeric columns with uncorrelated Gaussian noise of the
// given relative amplitude.
func AddNoise(d *Dataset, cols []int, amplitude float64, rng *rand.Rand) (*Dataset, error) {
	return noise.AddUncorrelated(d, cols, amplitude, rng)
}

// AddCorrelatedNoise masks numeric columns preserving their correlation
// structure.
func AddCorrelatedNoise(d *Dataset, cols []int, amplitude float64, rng *rand.Rand) (*Dataset, error) {
	return noise.AddCorrelated(d, cols, amplitude, rng)
}

// AddMultiplicativeNoise masks numeric columns with lognormal
// multiplicative noise exp(σ·Z).
func AddMultiplicativeNoise(d *Dataset, cols []int, sigma float64, rng *rand.Rand) (*Dataset, error) {
	return noise.AddMultiplicative(d, cols, sigma, rng)
}

// Denoise mounts the shrinkage estimation attack against a noise-masked
// release (known per-column noise levels); risk assessments should attack
// the denoised data.
func Denoise(noisy *Dataset, cols []int, noiseSD map[string]float64) (*Dataset, error) {
	return noise.Denoise(noisy, cols, noiseSD)
}

// RankSwap masks numeric columns by rank swapping within a p% window.
func RankSwap(d *Dataset, cols []int, p float64, rng *rand.Rand) (*Dataset, error) {
	return swap.RankSwap(d, cols, p, rng)
}

// Reconstructor recovers a masked distribution from noise-added data
// (Agrawal–Srikant 2000).
type Reconstructor = noise.Reconstructor

// NewReconstructor returns an EM reconstructor for the given histogram
// resolution and known noise level.
func NewReconstructor(bins int, noiseSD float64) *Reconstructor {
	return noise.NewReconstructor(bins, noiseSD)
}

// Hierarchy is a value generalization hierarchy for recoding.
type Hierarchy = generalize.Hierarchy

// NewNumericHierarchy builds an interval hierarchy for a numeric attribute.
func NewNumericHierarchy(name string, min, base float64, intervalLevels int) (*Hierarchy, error) {
	return generalize.NewNumericHierarchy(name, min, base, intervalLevels)
}

// AnonymizeByGeneralization finds the minimum-height generalization that
// achieves k-anonymity with at most maxSuppress suppressed records.
func AnonymizeByGeneralization(d *Dataset, qiCols []int, hierarchies map[int]*Hierarchy, k, maxSuppress int) (*Dataset, generalize.LatticeResult, error) {
	return generalize.Anonymize(d, qiCols, hierarchies, k, maxSuppress)
}

// MondrianMask k-anonymizes numeric quasi-identifiers by multidimensional
// median partitioning.
func MondrianMask(d *Dataset, qiCols []int, k int) (*Dataset, [][]int, error) {
	return generalize.MondrianMask(d, qiCols, k)
}

// TopBottomCode clamps a numeric column at its lowerQ/upperQ quantiles,
// recoding the identifiable tails.
func TopBottomCode(d *Dataset, col int, lowerQ, upperQ float64) (*Dataset, int, error) {
	return generalize.TopBottomCode(d, col, lowerQ, upperQ)
}

// RoundTo publishes numeric columns rounded to multiples of base.
func RoundTo(d *Dataset, cols []int, base float64) (*Dataset, error) {
	return generalize.RoundTo(d, cols, base)
}

// --- hippocratic databases -------------------------------------------------

// Hippocratic-database types (the paper's [3,4]): purpose-aware storage
// with consent, limited disclosure/retention and an audit trail.
type (
	HippocraticStore   = hippocratic.Store
	HippocraticRule    = hippocratic.Rule
	HippocraticAudit   = hippocratic.AccessRecord
	HippocraticPurpose = hippocratic.Purpose
)

// NewHippocraticStore wraps a dataset in purpose-aware access control.
func NewHippocraticStore(d *Dataset, rules []HippocraticRule, opts ...hippocratic.Option) (*HippocraticStore, error) {
	return hippocratic.NewStore(d, rules, opts...)
}

// --- disclosure risk and information loss --------------------------------

// LinkageReport is the outcome of a distance-based record-linkage attack.
type LinkageReport = risk.LinkageReport

// DistanceLinkage runs the standard record-linkage attack.
func DistanceLinkage(original, masked *Dataset, cols []int) (LinkageReport, error) {
	return risk.DistanceLinkage(original, masked, cols)
}

// ProbLinkageConfig parameterises the Fellegi–Sunter-style attack.
type ProbLinkageConfig = risk.ProbLinkageConfig

// ProbabilisticLinkage runs EM-based probabilistic record linkage.
func ProbabilisticLinkage(original, masked *Dataset, cols []int, cfg ProbLinkageConfig) (LinkageReport, error) {
	return risk.ProbabilisticLinkage(original, masked, cols, cfg)
}

// InfoLoss aggregates the information-loss components of a masking.
type InfoLoss = risk.InfoLoss

// MeasureInfoLoss compares original and masked data.
func MeasureInfoLoss(original, masked *Dataset, cols []int) (InfoLoss, error) {
	return risk.MeasureInfoLoss(original, masked, cols)
}

// Assessment is the complete one-call risk/utility report of a masked
// release; AssessConfig tunes it.
type (
	Assessment   = risk.Assessment
	AssessConfig = risk.AssessConfig
)

// AssessRelease runs the full disclosure-risk and information-loss battery.
func AssessRelease(original, masked *Dataset, cols []int, cfg AssessConfig) (Assessment, error) {
	return risk.Assess(original, masked, cols, cfg)
}

// RegressionUtility compares the same linear regression fitted on the
// original and masked releases.
type RegressionUtility = risk.RegressionUtility

// MeasureRegressionUtility fits target ~ regressors on both datasets.
func MeasureRegressionUtility(original, masked *Dataset, regressors []int, target int) (RegressionUtility, error) {
	return risk.MeasureRegressionUtility(original, masked, regressors, target)
}

// --- interactive statistical databases ------------------------------------

// Re-exported query-language types of the interactive SDC server.
type (
	Query       = sdcquery.Query
	Predicate   = sdcquery.Predicate
	Cond        = sdcquery.Cond
	Answer      = sdcquery.Answer
	QueryServer = sdcquery.Server
	Tracker     = sdcquery.Tracker
)

// Aggregates and operators of the query language.
const (
	Count = sdcquery.Count
	Sum   = sdcquery.Sum
	Avg   = sdcquery.Avg

	Lt = sdcquery.Lt
	Le = sdcquery.Le
	Gt = sdcquery.Gt
	Ge = sdcquery.Ge
	Eq = sdcquery.Eq
	Ne = sdcquery.Ne
)

// Server protections.
const (
	NoProtection        = sdcquery.NoProtection
	SizeRestriction     = sdcquery.SizeRestriction
	Auditing            = sdcquery.Auditing
	Perturbation        = sdcquery.Perturbation
	Camouflage          = sdcquery.Camouflage
	OverlapRestriction  = sdcquery.OverlapRestriction
	RandomSample        = sdcquery.RandomSample
	DifferentialPrivacy = sdcquery.DifferentialPrivacy
)

// Differential-privacy budget errors: AskAs under DifferentialPrivacy
// returns errors wrapping these (match with errors.Is / errors.As on
// *BudgetError).
var (
	ErrBudgetExhausted = dp.ErrBudgetExhausted
	ErrNoPrincipal     = dp.ErrNoPrincipal
)

// BudgetError details a refused differential-privacy charge: who asked,
// what it would have cost and how much ε is left.
type BudgetError = dp.BudgetError

// EpsilonLedger is the concurrency-safe per-(principal, dataset) ε-budget
// ledger behind the DifferentialPrivacy protection, exported for callers
// that meter their own mechanisms.
type EpsilonLedger = dp.Ledger

// NewEpsilonLedger returns a ledger granting each (principal, dataset)
// pair the given total ε budget.
func NewEpsilonLedger(budget float64) (*EpsilonLedger, error) { return dp.NewLedger(budget) }

// ServerConfig configures an interactive statistical database server.
type ServerConfig = sdcquery.Config

// NewQueryServer wraps a dataset in a protected query interface.
func NewQueryServer(d *Dataset, cfg ServerConfig) (*QueryServer, error) {
	return sdcquery.NewServer(d, cfg)
}

// NewTracker prepares Schlörer's individual tracker attack for target
// predicate a ∧ b.
func NewTracker(srv *QueryServer, a Predicate, b Cond) *Tracker {
	return sdcquery.NewTracker(srv, a, b)
}

// ParseQuery parses the SQL-ish statistical query dialect of the paper's
// examples, e.g. "SELECT AVG(blood_pressure) WHERE height < 165".
func ParseQuery(input string) (Query, error) { return sdcquery.ParseQuery(input) }

// --- PPDM ------------------------------------------------------------------

// Warner is Warner's randomized response scheme.
type Warner = randresp.Warner

// NewWarner validates and returns a Warner scheme with truth probability p.
func NewWarner(p float64) (*Warner, error) { return randresp.NewWarner(p) }

// Data-mining substrate types.
type (
	TreeNode    = mining.TreeNode
	TreeOptions = mining.TreeOptions
	Transaction = mining.Transaction
	Rule        = mining.Rule
	Itemset     = mining.Itemset
)

// TrainTree builds an ID3/C4.5-style decision tree.
func TrainTree(d *Dataset, target string, opt TreeOptions) (*TreeNode, error) {
	return mining.TrainTree(d, target, opt)
}

// TrainTreeOnReconstructed trains on noise-masked data via AS2000
// distribution reconstruction.
func TrainTreeOnReconstructed(noisy *Dataset, target string, noiseSD map[string]float64, bins int, opt TreeOptions) (*TreeNode, error) {
	return mining.TrainTreeOnReconstructed(noisy, target, noiseSD, bins, opt)
}

// MineRules mines association rules with single-item consequents.
func MineRules(txs []Transaction, minSupport int, minConfidence float64) ([]Rule, error) {
	return mining.MineRules(txs, minSupport, minConfidence)
}

// SensitiveRule designates an association rule to hide before release.
type SensitiveRule = rulehide.SensitiveRule

// HideRules sanitises transactions so the sensitive rules cannot be mined.
func HideRules(txs []Transaction, sensitive []SensitiveRule, minSupport int, minConfidence float64) ([]Transaction, rulehide.Report, error) {
	return rulehide.Hide(txs, sensitive, minSupport, minConfidence)
}

// --- secure multiparty computation ----------------------------------------

// SMC substrate types.
type (
	SMCNetwork         = smc.Network
	SMCMessage         = smc.Message
	PaillierPrivateKey = smc.PaillierPrivateKey
	PaillierPublicKey  = smc.PaillierPublicKey
)

// FieldElem is an element of the GF(2^61−1) prime field the secret-sharing
// protocols compute in.
type FieldElem = smc.Elem

// EncodeFieldInt embeds a signed integer into the field; DecodeFieldInt
// inverts it for values of moderate magnitude.
func EncodeFieldInt(v int64) FieldElem { return smc.EncodeInt(v) }

// DecodeFieldInt interprets a field element as a signed integer.
func DecodeFieldInt(e FieldElem) int64 { return smc.DecodeInt(e) }

// NewSMCNetwork creates a recording network for n in-process parties.
func NewSMCNetwork(n int) (*SMCNetwork, error) { return smc.NewNetwork(n) }

// SecureSum computes the sum of private inputs via additive secret sharing.
func SecureSum(nw *SMCNetwork, inputs []FieldElem, seeds []uint64) (FieldElem, error) {
	return smc.SecureSum(nw, inputs, seeds)
}

// SecureID3 builds a decision tree over horizontally partitioned data
// without pooling it (Lindell–Pinkas-style crypto PPDM).
func SecureID3(parts []*Dataset, target string, maxDepth int, seed uint64) (*TreeNode, *SMCNetwork, error) {
	return smc.SecureID3(parts, target, maxDepth, seed)
}

// GeneratePaillier creates a Paillier key pair.
func GeneratePaillier(bits int) (*PaillierPrivateKey, error) { return smc.GeneratePaillier(bits) }

// PSIParty is one side of the Diffie–Hellman private-set-intersection
// protocol.
type PSIParty = smc.PSIParty

// NewPSIParty creates a PSI party over its private set.
func NewPSIParty(set []string) (*PSIParty, error) { return smc.NewPSIParty(set) }

// PSIIntersect runs the full PSI protocol and returns the intersection.
func PSIIntersect(alice, bob *PSIParty) []string { return smc.Intersect(alice, bob) }

// SecureCompare solves Yao's millionaires' problem over a small domain via
// oblivious transfer: it reports whether a > b without revealing either.
func SecureCompare(a, b uint32, bits int) (bool, error) { return smc.SecureCompare(a, b, bits) }

// VerticalNBParty is one side of the vertically partitioned secure naive
// Bayes protocol.
type VerticalNBParty = smc.VerticalNBParty

// TrainVerticalNB trains per-party local models over vertically partitioned
// data sharing a target column.
func TrainVerticalNB(parts []*Dataset, target string) ([]*VerticalNBParty, error) {
	return smc.TrainVerticalNB(parts, target)
}

// ClassifyVertical jointly classifies a record via secure sums of the
// parties' log-likelihood shares.
func ClassifyVertical(nw *SMCNetwork, parties []*VerticalNBParty, classes []string, row int, seed uint64) (string, error) {
	return smc.ClassifyVertical(nw, parties, classes, row, seed)
}

// --- private information retrieval ----------------------------------------

// PIR types.
type (
	ITServer  = pir.ITServer
	ITClient  = pir.ITClient
	KeywordDB = pir.KeywordDB
	StatDB    = pir.StatDB
)

// NewITServer creates one replicated information-theoretic PIR server.
func NewITServer(blocks [][]byte) (*ITServer, error) { return pir.NewITServer(blocks) }

// NewITClient connects a client to k ≥ 2 non-colluding servers.
func NewITClient(servers []*ITServer, seed uint64) (*ITClient, error) {
	return pir.NewITClient(servers, seed)
}

// NewKeywordDB builds a keyword-PIR database over the entries.
func NewKeywordDB(entries map[string][]byte, numServers int) (*KeywordDB, error) {
	return pir.NewKeywordDB(entries, numServers)
}

// BuildStatDB builds the PIR-backed statistical database of the paper's
// Section 3 scenario.
func BuildStatDB(d *Dataset, xAttr, yAttr, targetAttr string, xEdges, yEdges []float64, numServers int) (*StatDB, error) {
	return pir.BuildStatDB(d, xAttr, yAttr, targetAttr, xEdges, yEdges, numServers)
}

// PIRHTTPServer adapts an ITServer to net/http so replicas can run as
// separate processes; PIRHTTPClient is the matching client.
type (
	PIRHTTPServer = pir.HTTPServer
	PIRHTTPClient = pir.HTTPClient
)

// NewPIRHTTPServer wraps an IT-PIR server for HTTP serving.
func NewPIRHTTPServer(srv *ITServer) *PIRHTTPServer { return pir.NewHTTPServer(srv) }

// NewPIRHTTPClient connects to replicated HTTP PIR servers. A nil client
// uses http.DefaultClient.
func NewPIRHTTPClient(urls []string, client *http.Client, seed uint64) (*PIRHTTPClient, error) {
	return pir.NewHTTPClient(urls, client, seed)
}
