// The client wire codec: submission and result frames for pepd sessions.
//
// Frames follow the repository's codec rules (DESIGN.md, "Blob codec")
// behind a magic and a version. A frame's length is a pure function of its
// values, so traced frame bytes are replayable.
package serve

import (
	"errors"
	"fmt"

	"pepscale/internal/spectrum"
	"pepscale/internal/topk"
	"pepscale/internal/wire"
)

// Frame magics ("PSUB", "PRES" little-endian) and the codec version.
const (
	submitMagic = uint32('P') | uint32('S')<<8 | uint32('U')<<16 | uint32('B')<<24
	resultMagic = uint32('P') | uint32('R')<<8 | uint32('E')<<16 | uint32('S')<<24
	wireVersion = 1
)

// errFrame reports a frame that fails structural validation.
var errFrame = errors.New("serve: corrupt frame")

// SubmitFrame is one query-spectrum submission from a client session.
type SubmitFrame struct {
	// Tenant names the submitting tenant.
	Tenant string
	// Seq is the client's per-tenant sequence number.
	Seq uint64
	// AtSec is the arrival instant on the virtual clock.
	AtSec float64
	// Spec is the query spectrum.
	Spec *spectrum.Spectrum
}

// ResultFrame streams one query's finished top-τ hits back to its client.
type ResultFrame struct {
	// Tenant and Seq echo the admission identity of the query.
	Tenant string
	Seq    uint64
	// Batch is the batch the query was served in.
	Batch int32
	// QueryID is the spectrum identifier.
	QueryID string
	// ArriveSec and DoneSec bracket the query's virtual service interval.
	ArriveSec float64
	DoneSec   float64
	// Hits is the ranked top-τ list.
	Hits []topk.Hit
}

// Encode serializes the submission frame.
func (f *SubmitFrame) Encode() []byte {
	b := make([]byte, 0, 4+4+4+len(f.Tenant)+8+8+f.Spec.WireSize())
	b = wire.U32(b, submitMagic)
	b = wire.U32(b, wireVersion)
	b = wire.Str(b, f.Tenant)
	b = wire.U64(b, f.Seq)
	b = wire.F64(b, f.AtSec)
	return f.Spec.AppendWire(b)
}

// DecodeSubmit parses a submission frame, rejecting any non-canonical blob
// (bad magic or version, truncation, trailing bytes, or oversized counts).
func DecodeSubmit(b []byte) (*SubmitFrame, error) {
	r := wire.NewReader(b, errFrame)
	if m := r.U32(); m != submitMagic {
		return nil, fmt.Errorf("%w: bad submit magic %#x", errFrame, m)
	}
	if v := r.U32(); v != wireVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", errFrame, v)
	}
	f := &SubmitFrame{Tenant: r.Str(), Seq: r.U64(), AtSec: r.F64(), Spec: spectrum.ReadWire(&r)}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return f, nil
}

// Encode serializes the result frame.
func (f *ResultFrame) Encode() []byte {
	b := make([]byte, 0, 4+4+4+len(f.Tenant)+8+4+4+len(f.QueryID)+8+8+topk.HitsWireSize(f.Hits))
	b = wire.U32(b, resultMagic)
	b = wire.U32(b, wireVersion)
	b = wire.Str(b, f.Tenant)
	b = wire.U64(b, f.Seq)
	b = wire.U32(b, uint32(f.Batch))
	b = wire.Str(b, f.QueryID)
	b = wire.F64(b, f.ArriveSec)
	b = wire.F64(b, f.DoneSec)
	return topk.AppendHits(b, f.Hits)
}

// DecodeResult parses a result frame under the same canonical-only rules as
// DecodeSubmit.
func DecodeResult(b []byte) (*ResultFrame, error) {
	r := wire.NewReader(b, errFrame)
	if m := r.U32(); m != resultMagic {
		return nil, fmt.Errorf("%w: bad result magic %#x", errFrame, m)
	}
	if v := r.U32(); v != wireVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", errFrame, v)
	}
	f := &ResultFrame{
		Tenant:    r.Str(),
		Seq:       r.U64(),
		Batch:     int32(r.U32()),
		QueryID:   r.Str(),
		ArriveSec: r.F64(),
		DoneSec:   r.F64(),
		Hits:      topk.ReadHits(&r),
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return f, nil
}
