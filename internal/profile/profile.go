// Package profile computes per-attribute statistics over relations. These
// statistics are the raw material of ALADIN's discovery steps: uniqueness
// checks drive accession-candidate detection (§4.2), value-length and
// character-class statistics implement the accession heuristics, alphabet
// analysis finds sequence fields (§4.4), and distinct-value signatures
// support the pruning strategies of §4.4/§6.2. Statistics are computed
// once per source and stored in the metadata repository for reuse when
// later sources are added (§3, "These statistics need to be computed only
// once for each data source").
package profile

import (
	"context"
	"hash/fnv"
	"math"
	"strings"
	"unicode"

	"repro/internal/parallel"
	"repro/internal/rel"
)

// SignatureSize is the number of min-hash slots kept per column for
// cheap Jaccard-overlap estimation between attribute value sets.
const SignatureSize = 64

// Options configures profiling.
type Options struct {
	// SampleEvery profiles only every n-th tuple when > 1 (§6.2
	// "sampling can be used"). 0 or 1 profiles all tuples.
	SampleEvery int
	// MaxTrackedDistinct caps the exact distinct-value set kept per
	// column; above the cap only the approximate signature remains.
	// 0 means unlimited.
	MaxTrackedDistinct int
	// Workers bounds the worker pool profiling columns concurrently.
	// Values <= 1 profile serially.
	Workers int
}

// ColumnProfile holds the discovered statistics of one attribute.
type ColumnProfile struct {
	Relation string
	Column   string

	Rows     int // tuples seen (after sampling)
	Nulls    int
	Distinct int // exact when DistinctValues != nil, else estimate

	// Unique is true when every non-null value occurred once and there
	// were no NULLs — the SQL UNIQUE test of §4.2.
	Unique bool

	// Length statistics over the textual rendering of non-null values.
	MinLen, MaxLen int
	MeanLen        float64
	// LenSpreadRatio is (MaxLen-MinLen)/MaxLen; the accession heuristic
	// requires values "to differ by at most 20 percent in length".
	LenSpreadRatio float64

	// AllValuesHaveNonDigit is true when every non-null value contains at
	// least one non-digit character (accession numbers are alphanumeric;
	// parser-generated surrogate keys are digits only, §4.2).
	AllValuesHaveNonDigit bool
	// PurelyNumeric is true when every non-null value parses as a number.
	PurelyNumeric bool

	// FracUppercaseAlpha is the fraction of alphabetic characters that are
	// uppercase, over all values.
	FracUppercaseAlpha float64

	// DNAAlphabetFrac / ProteinAlphabetFrac are the fractions of non-space
	// characters drawn from the DNA ({A,C,G,T,N,U}) and amino-acid
	// alphabets; near-1.0 values over long strings flag sequence fields
	// (§4.4 "those contain only strings over a fixed alphabet").
	DNAAlphabetFrac     float64
	ProteinAlphabetFrac float64

	// MeanTokens is the average whitespace-token count; high values flag
	// free-text annotation fields suitable for text mining.
	MeanTokens float64

	// DistinctValues is the exact distinct non-null value set, keyed by
	// rel.Value.Key(), if it fit under MaxTrackedDistinct.
	DistinctValues map[string]rel.Value

	// Signature is a min-hash signature of the distinct value set for
	// estimating overlap without comparing full sets.
	Signature [SignatureSize]uint64

	// Samples holds up to 10 example non-null values.
	Samples []string

	// MinValue and MaxValue bound the non-null values under rel.Value
	// ordering (KindNull when the column is all-NULL). They feed the
	// planner's statistics block.
	MinValue rel.Value
	MaxValue rel.Value

	// HistSample is a deterministic reservoir sample of non-null values
	// (capped at histSampleCap) from which the planner's equi-depth
	// histogram is built.
	HistSample []rel.Value
}

// histSampleCap bounds the per-column histogram reservoir.
const histSampleCap = 1024

// dnaAlphabet includes the IUPAC bases plus N (unknown) and U (RNA).
func isDNAChar(r rune) bool {
	switch unicode.ToUpper(r) {
	case 'A', 'C', 'G', 'T', 'N', 'U':
		return true
	}
	return false
}

// protein alphabet: the 20 standard amino acids plus ambiguity codes.
func isProteinChar(r rune) bool {
	switch unicode.ToUpper(r) {
	case 'A', 'C', 'D', 'E', 'F', 'G', 'H', 'I', 'K', 'L', 'M', 'N',
		'P', 'Q', 'R', 'S', 'T', 'V', 'W', 'Y', 'B', 'Z', 'X':
		return true
	}
	return false
}

// ProfileColumn computes the profile of one column.
func ProfileColumn(r *rel.Relation, column string, opts Options) (*ColumnProfile, error) {
	idx := r.Schema.Index(column)
	if idx < 0 {
		return nil, newErrNoColumn(r.Name, column)
	}
	p := &ColumnProfile{
		Relation:              r.Name,
		Column:                column,
		MinLen:                math.MaxInt32,
		AllValuesHaveNonDigit: true,
		PurelyNumeric:         true,
		MinValue:              rel.Null(),
		MaxValue:              rel.Null(),
	}
	// Deterministic LCG state for the histogram reservoir: same input,
	// same sample — profiling results stay reproducible.
	var rng uint64 = 0x243f6a8885a308d3
	for i := range p.Signature {
		p.Signature[i] = math.MaxUint64
	}
	step := opts.SampleEvery
	if step < 1 {
		step = 1
	}
	seen := make(map[string]int)
	var totalLen, totalTokens int
	var alphaUpper, alphaTotal int
	var dnaChars, protChars, seqChars int
	nonNull := 0
	for i := 0; i < len(r.Tuples); i += step {
		v := r.Tuples[i][idx]
		p.Rows++
		if v.IsNull() {
			p.Nulls++
			continue
		}
		nonNull++
		s := v.AsString()
		key := v.Key()
		seen[key]++
		if seen[key] == 1 {
			// Update min-hash signature on first sight of the value.
			updateSignature(&p.Signature, key)
			if opts.MaxTrackedDistinct == 0 || len(seen) <= opts.MaxTrackedDistinct {
				if p.DistinctValues == nil {
					p.DistinctValues = make(map[string]rel.Value)
				}
				p.DistinctValues[key] = v
			}
		}
		n := len(s)
		totalLen += n
		if n < p.MinLen {
			p.MinLen = n
		}
		if n > p.MaxLen {
			p.MaxLen = n
		}
		hasNonDigit := false
		for _, c := range s {
			if !unicode.IsDigit(c) {
				hasNonDigit = true
			}
			if unicode.IsLetter(c) {
				alphaTotal++
				if unicode.IsUpper(c) {
					alphaUpper++
				}
			}
			if !unicode.IsSpace(c) {
				seqChars++
				if isDNAChar(c) {
					dnaChars++
				}
				if isProteinChar(c) {
					protChars++
				}
			}
		}
		if !hasNonDigit {
			p.AllValuesHaveNonDigit = false
		}
		if _, ok := v.AsFloat(); !ok {
			p.PurelyNumeric = false
		}
		totalTokens += len(strings.Fields(s))
		if len(p.Samples) < 10 {
			p.Samples = append(p.Samples, s)
		}
		if p.MinValue.IsNull() || v.Compare(p.MinValue) < 0 {
			p.MinValue = v
		}
		if p.MaxValue.IsNull() || v.Compare(p.MaxValue) > 0 {
			p.MaxValue = v
		}
		if len(p.HistSample) < histSampleCap {
			p.HistSample = append(p.HistSample, v)
		} else {
			rng = rng*6364136223846793005 + 1442695040888963407
			if j := rng % uint64(nonNull); j < histSampleCap {
				p.HistSample[j] = v
			}
		}
	}
	p.Distinct = len(seen)
	if opts.MaxTrackedDistinct > 0 && len(seen) > opts.MaxTrackedDistinct {
		p.DistinctValues = nil // over cap: keep only the signature
	}
	p.Unique = p.Nulls == 0 && nonNull > 0 && p.Distinct == nonNull
	if nonNull > 0 {
		p.MeanLen = float64(totalLen) / float64(nonNull)
		p.MeanTokens = float64(totalTokens) / float64(nonNull)
	} else {
		p.MinLen = 0
		p.AllValuesHaveNonDigit = false
		p.PurelyNumeric = false
	}
	if p.MaxLen > 0 {
		p.LenSpreadRatio = float64(p.MaxLen-p.MinLen) / float64(p.MaxLen)
	}
	if alphaTotal > 0 {
		p.FracUppercaseAlpha = float64(alphaUpper) / float64(alphaTotal)
	}
	if seqChars > 0 {
		p.DNAAlphabetFrac = float64(dnaChars) / float64(seqChars)
		p.ProteinAlphabetFrac = float64(protChars) / float64(seqChars)
	}
	return p, nil
}

// ProfileDatabase profiles every column of every relation in db, returned
// as a map keyed "relation.column" (lower-cased). Columns are profiled
// concurrently when Options.Workers allows; each column is an independent
// scan, so the result is identical to the serial order.
func ProfileDatabase(db *rel.Database, opts Options) (map[string]*ColumnProfile, error) {
	return ProfileDatabaseContext(context.Background(), db, opts)
}

// ProfileDatabaseContext is ProfileDatabase with cancellation: when ctx
// is canceled mid-scan the partial result is discarded and ctx.Err() is
// returned.
func ProfileDatabaseContext(ctx context.Context, db *rel.Database, opts Options) (map[string]*ColumnProfile, error) {
	type task struct {
		r   *rel.Relation
		col string
	}
	var tasks []task
	for _, r := range db.Relations() {
		for _, c := range r.Schema.Columns {
			tasks = append(tasks, task{r, c.Name})
		}
	}
	profs := make([]*ColumnProfile, len(tasks))
	errs := make([]error, len(tasks))
	if err := parallel.For(ctx, opts.Workers, len(tasks), func(i int) {
		profs[i], errs[i] = ProfileColumn(tasks[i].r, tasks[i].col, opts)
	}); err != nil {
		return nil, err
	}
	out := make(map[string]*ColumnProfile, len(tasks))
	for i, t := range tasks {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out[Key(t.r.Name, profs[i].Column)] = profs[i]
	}
	return out, nil
}

// Key builds the canonical "relation.column" profile-map key.
func Key(relation, column string) string {
	return strings.ToLower(relation) + "." + strings.ToLower(column)
}

// updateSignature folds a value key into a min-hash signature using
// per-slot salted FNV hashing.
func updateSignature(sig *[SignatureSize]uint64, key string) {
	h := fnv.New64a()
	h.Write([]byte(key))
	base := h.Sum64()
	for i := 0; i < SignatureSize; i++ {
		// Mix the base hash with a slot-dependent multiplier; this is the
		// standard cheap simulation of k independent hash functions.
		x := base*(2*uint64(i)+1) + uint64(i)*0x9e3779b97f4a7c15
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
		if x < sig[i] {
			sig[i] = x
		}
	}
}

// EstimateJaccard estimates the Jaccard similarity of two columns' value
// sets from their min-hash signatures.
func EstimateJaccard(a, b *ColumnProfile) float64 {
	if a.Distinct == 0 || b.Distinct == 0 {
		return 0
	}
	match := 0
	for i := 0; i < SignatureSize; i++ {
		if a.Signature[i] == b.Signature[i] && a.Signature[i] != math.MaxUint64 {
			match++
		}
	}
	return float64(match) / float64(SignatureSize)
}

// EstimateContainment estimates |A ∩ B| / |A| from signatures and distinct
// counts, the quantity inclusion-dependency pruning needs.
func EstimateContainment(a, b *ColumnProfile) float64 {
	j := EstimateJaccard(a, b)
	if j == 0 {
		return 0
	}
	// |A∩B| = J * |A∪B| ≈ J * (|A|+|B|) / (1+J)
	inter := j * float64(a.Distinct+b.Distinct) / (1 + j)
	c := inter / float64(a.Distinct)
	if c > 1 {
		c = 1
	}
	return c
}

// IsSequenceField applies the §4.4 rule for finding DNA/protein sequence
// attributes: long values over a fixed biological alphabet.
func (p *ColumnProfile) IsSequenceField() bool {
	if p.MeanLen < 40 || p.Distinct == 0 {
		return false
	}
	return p.DNAAlphabetFrac > 0.98 || p.ProteinAlphabetFrac > 0.98
}

// IsTextField applies a simple rule for free-text annotation fields:
// multi-token values of nontrivial mean length that are not sequences.
func (p *ColumnProfile) IsTextField() bool {
	return p.MeanTokens >= 3 && p.MeanLen >= 15 && !p.IsSequenceField()
}

type errNoColumn string

func (e errNoColumn) Error() string { return string(e) }

func newErrNoColumn(relName, col string) error {
	return errNoColumn("profile: relation " + relName + " has no column " + col)
}
