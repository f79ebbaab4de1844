package main

import (
	"fmt"
	"hash/fnv"
	"math"

	"partitionjoin/internal/exec"
	"partitionjoin/internal/storage"
)

// floatTol is the relative tolerance for float aggregates: different join
// algorithms, shard merges and worker interleavings add the same terms in
// different orders.
const floatTol = 1e-9

// digest is the order-insensitive fingerprint of a result: the row count, a
// wrapping sum of per-row hashes over the integer and string cells, and one
// running sum per float column (compared at floatTol). Kinds records each
// column's lane — 'i', 'f' or 's' — so a JSON-decoded result, whose numbers
// all arrive as float64, is read the way the reference was.
type digest struct {
	Kinds  string
	Rows   int
	Hash   uint64
	Floats []float64
}

func (d digest) String() string {
	return fmt.Sprintf("rows=%d hash=%016x floats=%v", d.Rows, d.Hash, d.Floats)
}

// equal reports whether two digests describe the same multiset of rows.
func (d digest) equal(o digest) bool {
	if d.Rows != o.Rows || d.Hash != o.Hash || len(d.Floats) != len(o.Floats) {
		return false
	}
	for i, a := range d.Floats {
		b := o.Floats[i]
		if math.Abs(a-b) > floatTol*math.Max(math.Abs(a), math.Abs(b)) {
			return false
		}
	}
	return true
}

// digester accumulates a digest row by row.
type digester struct {
	d   digest
	row uint64 // hash of the row in progress
	fi  int    // next float column of the row in progress
}

func newDigester(kinds string) *digester {
	nf := 0
	for _, k := range kinds {
		if k == 'f' {
			nf++
		}
	}
	return &digester{d: digest{Kinds: kinds, Floats: make([]float64, nf)}}
}

// mix folds one cell into the row hash; the column index keeps (1,2) and
// (2,1) apart.
func (g *digester) mix(col int, v uint64) {
	x := g.row ^ (v + 0x9e3779b97f4a7c15 + uint64(col)<<32)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	g.row = x ^ (x >> 31)
}

func (g *digester) addInt(col int, v int64) { g.mix(col, uint64(v)) }

func (g *digester) addFloat(v float64) {
	g.d.Floats[g.fi] += v
	g.fi++
}

func (g *digester) addBytes(col int, b []byte) {
	h := fnv.New64a()
	h.Write(b)
	g.mix(col, h.Sum64())
}

func (g *digester) endRow() {
	g.d.Hash += g.row
	g.d.Rows++
	g.row, g.fi = 0, 0
}

// addRow folds one decoded row (server JSON or coordinator merge output):
// cells are int64, float64 or string, and JSON turns every number into a
// float64, so the reference's lane decides how a cell is read.
func (g *digester) addRow(row []any) error {
	if len(row) != len(g.d.Kinds) {
		return fmt.Errorf("row has %d cells, reference has %d columns", len(row), len(g.d.Kinds))
	}
	for c, cell := range row {
		switch k := g.d.Kinds[c]; {
		case k == 's':
			s, ok := cell.(string)
			if !ok {
				return fmt.Errorf("column %d: %T where the reference has a string", c, cell)
			}
			g.addBytes(c, []byte(s))
		default:
			var f float64
			var i int64
			switch v := cell.(type) {
			case float64:
				f, i = v, int64(v)
			case int64:
				f, i = float64(v), v
			default:
				return fmt.Errorf("column %d: %T where the reference has a number", c, cell)
			}
			if k == 'f' {
				g.addFloat(f)
			} else {
				g.addInt(c, i)
			}
		}
	}
	g.endRow()
	return nil
}

func kindOf(t storage.Type) byte {
	switch t {
	case storage.Float64:
		return 'f'
	case storage.String:
		return 's'
	}
	return 'i'
}

// digestResult fingerprints an in-process result.
func digestResult(r *exec.Result) digest {
	kinds := make([]byte, len(r.Vecs))
	for c := range r.Vecs {
		kinds[c] = kindOf(r.Vecs[c].T)
	}
	g := newDigester(string(kinds))
	for i, n := 0, r.NumRows(); i < n; i++ {
		for c := range r.Vecs {
			v := &r.Vecs[c]
			switch kinds[c] {
			case 'f':
				g.addFloat(v.F64[i])
			case 's':
				g.addBytes(c, v.Str[i])
			default:
				g.addInt(c, v.I64[i])
			}
		}
		g.endRow()
	}
	return g.d
}

// digestRows fingerprints decoded rows under the reference's column lanes.
func digestRows(kinds string, rows [][]any) (digest, error) {
	g := newDigester(kinds)
	for _, row := range rows {
		if err := g.addRow(row); err != nil {
			return digest{}, err
		}
	}
	return g.d, nil
}
