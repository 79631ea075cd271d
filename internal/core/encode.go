package core

// Stable Result serialization: the byte encoding the on-disk result store
// (internal/resultdb) persists and every future reader must keep decoding.
// The encoding is canonical JSON of the Result struct with the Config
// canonicalized first, so encoding the same simulation always yields the
// same bytes:
//
//   - The bytes are exactly what encoding/json's Marshal writes for the
//     Result: fields in declaration order under their Go names, integers
//     in decimal, floats in Marshal's shortest form ('f', or 'e' with a
//     one-digit negative exponent below 1e-6 and from 1e21), strings
//     HTML-escaped, policies by their paper names. A hand-written
//     appender (codec, below) writes them without reflection; the golden
//     file and FuzzResultCodec pin it to Marshal byte for byte.
//   - Config.Canonical() materializes every default before encoding, so a
//     zero-valued field and its explicit default encode identically — the
//     same equivalence Config.Key establishes for memoization.
//
// DecodeResult walks the same layout back, and accepts that parse only
// when re-encoding the parsed result reproduces the input byte for byte:
// the input is then the canonical encoding of exactly that value, which
// is what json.Unmarshal would have produced from it. Any other input —
// older records, unknown fields, whitespace, integer policies, escaped
// strings — goes to json.Unmarshal, so the fast path changes what is
// accepted and how it decodes in no case.
//
// JSON (rather than a packed binary form like the .wct trace format) keeps
// the records self-describing: fields added to Result in a future version
// decode as their zero value from old records, and old readers ignore
// fields they do not know. Container-level versioning (magic + version
// byte, checksums) is the store's job, not the payload's.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"

	"waycache/internal/access"
	"waycache/internal/cache"
	"waycache/internal/energy"
	"waycache/internal/pipeline"
	"waycache/internal/wattch"
)

// EncodeResult renders r into its canonical, stable byte encoding. Two
// results of the same simulation encode byte-identically. Results driven
// by a custom trace Source cannot be encoded (their behaviour is not
// captured by the config, mirroring Config.Key's refusal to key them).
func EncodeResult(r *Result) ([]byte, error) {
	if r == nil {
		return nil, fmt.Errorf("core: cannot encode nil result")
	}
	if r.Config.Source != nil {
		return nil, fmt.Errorf("core: result of a custom-Source run has no canonical encoding")
	}
	rr := *r
	rr.Config = rr.Config.Canonical()
	c := codec{out: make([]byte, 0, 2048)}
	c.result(&rr)
	if c.err != nil {
		return nil, fmt.Errorf("core: encoding result: %w", c.err)
	}
	return c.out, nil
}

// DecodeResult decodes bytes produced by EncodeResult. Decoding is
// tolerant of unknown fields, so records written by a newer waycache still
// decode (new fields are simply dropped); fields absent from old records
// decode as zero values. The result is always what json.Unmarshal would
// produce: canonical bytes are parsed directly, anything else by it.
func DecodeResult(data []byte) (*Result, error) {
	r := new(Result)
	if decodeCanonical(data, r) {
		return r, nil
	}
	*r = Result{}
	if err := json.Unmarshal(data, r); err != nil {
		return nil, fmt.Errorf("core: decoding result: %w", err)
	}
	return r, nil
}

// decodeCanonical parses data as the canonical layout into r and reports
// whether data is exactly r's encoding.
func decodeCanonical(data []byte, r *Result) bool {
	d := codec{in: data, dec: true}
	d.result(r)
	if d.err != nil || len(d.in) != 0 {
		return false
	}
	// Re-encode as parsed, without canonicalizing the config: a record
	// holding zero-valued defaults is accepted here exactly as written,
	// as json.Unmarshal would read it.
	buf := verifyBufs.Get().(*[]byte)
	defer verifyBufs.Put(buf)
	e := codec{out: (*buf)[:0]}
	e.result(r)
	*buf = e.out
	return e.err == nil && bytes.Equal(e.out, data)
}

// verifyBufs recycles decodeCanonical's re-encoding buffers.
var verifyBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 2048)
	return &b
}}

// errLayout stops a decode walk at the first byte outside the canonical
// layout; the caller then falls back to json.Unmarshal.
var errLayout = errors.New("core: not the canonical result layout")

// codec walks a Result's encoded fields in declaration order. Encoding
// appends each one to out; decoding (dec) reads the same bytes back from
// in, stopping with errLayout at the first one the walk does not expect.
// One walk serves both directions, so they cannot disagree on the layout.
type codec struct {
	dec   bool
	in    []byte // decode: the input not yet read
	out   []byte // encode: the bytes so far
	first bool   // the current object has no field yet
	err   error
}

func (c *codec) result(r *Result) {
	c.begin()
	c.str("Benchmark", &r.Benchmark)
	c.config(&r.Config)
	c.pipelineStats(&r.Pipeline)
	c.dstats(&r.DStats)
	c.istats(&r.IStats)
	c.account("DAcct", &r.DAcct)
	c.account("IAcct", &r.IAcct)
	c.cacheStats("DL1", &r.DL1)
	c.cacheStats("IL1", &r.IL1)
	c.hierarchy(&r.Hier)
	c.power(&r.Power)
	c.end()
}

func (c *codec) config(cfg *Config) {
	c.object("Config")
	c.str("Benchmark", &cfg.Benchmark)
	c.str("Trace", &cfg.Trace)
	c.i64("Insts", &cfg.Insts)
	c.dpolicy("DPolicy", &cfg.DPolicy)
	c.ipolicy("IPolicy", &cfg.IPolicy)
	c.int("SelectiveWays", &cfg.SelectiveWays)
	c.int("DSize", &cfg.DSize)
	c.int("DWays", &cfg.DWays)
	c.int("DBlock", &cfg.DBlock)
	c.int("ISize", &cfg.ISize)
	c.int("IWays", &cfg.IWays)
	c.int("IBlock", &cfg.IBlock)
	c.int("DLatency", &cfg.DLatency)
	c.int("TableSize", &cfg.TableSize)
	c.int("VictimSize", &cfg.VictimSize)
	c.bool("UsePaperCosts", &cfg.UsePaperCosts)
	c.pipelineConfig(&cfg.Core)
	c.end()
}

func (c *codec) pipelineConfig(p *pipeline.Config) {
	c.object("Core")
	c.int("FetchWidth", &p.FetchWidth)
	c.int("IssueWidth", &p.IssueWidth)
	c.int("CommitWidth", &p.CommitWidth)
	c.int("ROBSize", &p.ROBSize)
	c.int("LSQSize", &p.LSQSize)
	c.int("DCachePorts", &p.DCachePorts)
	c.i64("MaxInsts", &p.MaxInsts)
	c.end()
}

func (c *codec) pipelineStats(s *pipeline.Stats) {
	c.object("Pipeline")
	c.i64("Cycles", &s.Cycles)
	c.i64("Committed", &s.Committed)
	c.i64("FetchGroups", &s.FetchGroups)
	c.i64("Dispatched", &s.Dispatched)
	c.i64("Issued", &s.Issued)
	c.i64("Loads", &s.Loads)
	c.i64("Stores", &s.Stores)
	c.i64("Branches", &s.Branches)
	c.i64("BranchMispred", &s.BranchMispred)
	c.i64("RASMispred", &s.RASMispred)
	c.i64("RegReads", &s.RegReads)
	c.i64("RegWrites", &s.RegWrites)
	c.i64("IntOps", &s.IntOps)
	c.i64("FPOps", &s.FPOps)
	c.end()
}

func (c *codec) dstats(s *access.DStats) {
	c.object("DStats")
	c.i64("Loads", &s.Loads)
	c.i64("Stores", &s.Stores)
	c.i64s("ByClass", s.ByClass[:])
	c.i64("LoadMiss", &s.LoadMiss)
	c.i64("MispredDM", &s.MispredDM)
	c.i64("MispredWay", &s.MispredWay)
	c.end()
}

func (c *codec) istats(s *access.IStats) {
	c.object("IStats")
	c.i64("Fetches", &s.Fetches)
	c.i64s("ByClass", s.ByClass[:])
	c.i64s("BySource", s.BySource[:])
	c.i64("Misses", &s.Misses)
	c.end()
}

func (c *codec) account(name string, a *energy.Account) {
	c.object(name)
	c.object("Costs")
	c.int("Ways", &a.Costs.Ways)
	c.f64("Tag", &a.Costs.Tag)
	c.f64("WayParallel", &a.Costs.WayParallel)
	c.f64("WaySolo", &a.Costs.WaySolo)
	c.f64("WriteWay", &a.Costs.WriteWay)
	c.f64("Table", &a.Costs.Table)
	c.end()
	c.i64("ParallelReads", &a.ParallelReads)
	c.i64("OneWayReads", &a.OneWayReads)
	c.i64("TagOnlyReads", &a.TagOnlyReads)
	c.i64("SecondProbes", &a.SecondProbes)
	c.i64("Writes", &a.Writes)
	c.i64("Fills", &a.Fills)
	c.i64("TableAccesses", &a.TableAccesses)
	c.i64("PartialWays", &a.PartialWays)
	c.end()
}

func (c *codec) cacheStats(name string, s *cache.Stats) {
	c.object(name)
	c.i64("Accesses", &s.Accesses)
	c.i64("Hits", &s.Hits)
	c.i64("Misses", &s.Misses)
	c.i64("Evictions", &s.Evictions)
	c.i64("Dirty", &s.Dirty)
	c.end()
}

func (c *codec) hierarchy(h *cache.HierarchyStats) {
	c.object("Hier")
	c.i64("L2Accesses", &h.L2Accesses)
	c.i64("L2Hits", &h.L2Hits)
	c.i64("L2Misses", &h.L2Misses)
	c.i64("MemAccesses", &h.MemAccesses)
	c.i64("Writebacks", &h.Writebacks)
	c.i64("L2Writebacks", &h.L2Writebacks)
	c.end()
}

func (c *codec) power(b *wattch.Breakdown) {
	c.object("Power")
	c.f64("Clock", &b.Clock)
	c.f64("Frontend", &b.Frontend)
	c.f64("Rename", &b.Rename)
	c.f64("Window", &b.Window)
	c.f64("Regfile", &b.Regfile)
	c.f64("FU", &b.FU)
	c.f64("LSQ", &b.LSQ)
	c.f64("L1I", &b.L1I)
	c.f64("L1D", &b.L1D)
	c.f64("L2", &b.L2)
	c.end()
}

// --- layout ---

// lit writes or expects the literal bytes s.
func (c *codec) lit(s string) {
	if !c.dec {
		c.out = append(c.out, s...)
		return
	}
	if c.err == nil {
		if len(c.in) < len(s) || string(c.in[:len(s)]) != s {
			c.err = errLayout
			return
		}
		c.in = c.in[len(s):]
	}
}

// key writes or expects the separator before a field and its quoted name.
func (c *codec) key(name string) {
	if !c.first {
		c.lit(",")
	}
	c.first = false
	c.lit(`"`)
	c.lit(name)
	c.lit(`":`)
}

func (c *codec) begin() {
	c.lit("{")
	c.first = true
}

func (c *codec) object(name string) {
	c.key(name)
	c.begin()
}

func (c *codec) end() {
	c.lit("}")
	c.first = false
}

// --- values ---

func (c *codec) i64(name string, v *int64) {
	c.key(name)
	if !c.dec {
		c.out = strconv.AppendInt(c.out, *v, 10)
		return
	}
	*v = c.readInt()
}

func (c *codec) int(name string, v *int) {
	c.key(name)
	if !c.dec {
		c.out = strconv.AppendInt(c.out, int64(*v), 10)
		return
	}
	*v = int(c.readInt())
}

func (c *codec) i64s(name string, vs []int64) {
	c.key(name)
	c.lit("[")
	for i := range vs {
		if i > 0 {
			c.lit(",")
		}
		if !c.dec {
			c.out = strconv.AppendInt(c.out, vs[i], 10)
		} else {
			vs[i] = c.readInt()
		}
	}
	c.lit("]")
}

func (c *codec) f64(name string, v *float64) {
	c.key(name)
	if !c.dec {
		c.appendFloat(*v)
		return
	}
	f, err := strconv.ParseFloat(string(c.readNumber()), 64)
	if err != nil {
		c.err = errLayout
		return
	}
	*v = f
}

func (c *codec) bool(name string, v *bool) {
	c.key(name)
	if !c.dec {
		c.out = strconv.AppendBool(c.out, *v)
		return
	}
	*v = len(c.in) > 0 && c.in[0] == 't'
	c.lit(strconv.FormatBool(*v))
}

func (c *codec) str(name string, v *string) {
	c.key(name)
	if !c.dec {
		c.out = appendString(c.out, *v)
		return
	}
	*v = string(c.readString())
}

func (c *codec) dpolicy(name string, p *access.DPolicy) {
	c.key(name)
	if !c.dec {
		c.out = appendString(c.out, p.String())
		return
	}
	s := c.readString()
	for cand := access.DParallel; cand <= access.DWayPredMRU; cand++ {
		if string(s) == cand.String() {
			*p = cand
			return
		}
	}
	c.err = errLayout
}

func (c *codec) ipolicy(name string, p *access.IPolicy) {
	c.key(name)
	if !c.dec {
		c.out = appendString(c.out, p.String())
		return
	}
	s := c.readString()
	for _, cand := range []access.IPolicy{access.IParallel, access.IWayPred} {
		if string(s) == cand.String() {
			*p = cand
			return
		}
	}
	c.err = errLayout
}

// --- decoding primitives ---

// readNumber consumes a run of the bytes a JSON number may hold.
func (c *codec) readNumber() []byte {
	n := 0
	for n < len(c.in) && isNumberByte(c.in[n]) {
		n++
	}
	if n == 0 && c.err == nil {
		c.err = errLayout
	}
	tok := c.in[:n]
	c.in = c.in[n:]
	return tok
}

func isNumberByte(b byte) bool {
	return '0' <= b && b <= '9' || b == '-' || b == '+' || b == '.' || b == 'e' || b == 'E'
}

// readInt consumes an optionally negative run of decimal digits. It does
// not check for overflow: an out-of-range value re-encodes to different
// digits, which decodeCanonical's comparison rejects.
func (c *codec) readInt() int64 {
	in := c.in
	neg := len(in) > 0 && in[0] == '-'
	if neg {
		in = in[1:]
	}
	var u uint64
	n := 0
	for ; n < len(in) && '0' <= in[n] && in[n] <= '9'; n++ {
		u = u*10 + uint64(in[n]-'0')
	}
	if n == 0 && c.err == nil {
		c.err = errLayout
	}
	c.in = in[n:]
	if neg {
		return -int64(u)
	}
	return int64(u)
}

// readString consumes a quoted string holding no escape. An escaped
// string falls back to json.Unmarshal, which owns JSON's unescaping rules.
func (c *codec) readString() []byte {
	c.lit(`"`)
	if c.err != nil {
		return nil
	}
	n := bytes.IndexAny(c.in, `"\`)
	if n < 0 || c.in[n] != '"' {
		c.err = errLayout
		return nil
	}
	s := c.in[:n]
	c.in = c.in[n+1:]
	return s
}

// --- encoding primitives ---

// appendFloat appends f as encoding/json writes a float64: the shortest
// decimal that round-trips, in 'f' form unless |f| < 1e-6 or |f| >= 1e21,
// where 'e' form applies with a leading exponent zero dropped. NaN and
// the infinities have no JSON form and fail the encode.
func (c *codec) appendFloat(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if c.err == nil {
			c.err = fmt.Errorf("unsupported float value %v", f)
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst := strconv.AppendFloat(c.out, f, format, -1, 64)
	if format == 'e' {
		// e-07 -> e-7
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	c.out = dst
}

// appendString appends s as a JSON string the way encoding/json writes it
// (HTML-safe escaping, invalid UTF-8 as U+FFFD). Plain printable ASCII is
// copied directly; anything else is rare here and goes through json.Marshal.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if b := s[i]; b < 0x20 || b >= 0x7f || b == '"' || b == '\\' || b == '<' || b == '>' || b == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
