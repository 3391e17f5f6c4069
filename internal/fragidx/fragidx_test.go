package fragidx

import (
	"reflect"
	"slices"
	"testing"

	"pepscale/internal/chem"
	"pepscale/internal/digest"
	"pepscale/internal/score"
	"pepscale/internal/spectrum"
	"pepscale/internal/synth"
)

// fragIdxFixture builds a synthetic block and its inverted index.
func fragIdxFixture(t *testing.T, nDB int, params digest.Params, cfg score.Config) (*digest.Index, *Index) {
	t.Helper()
	dbSpec := synth.SizedSpec(nDB)
	dbSpec.Seed = 11
	ix, err := digest.NewIndex(synth.GenerateDB(dbSpec), 0, params)
	if err != nil {
		t.Fatal(err)
	}
	return ix, New(ix, params.Mods, cfg)
}

// modParams is the digest configuration with one variable modification, so
// the tiers carry per-residue mass deltas.
func modParams() digest.Params {
	params := digest.DefaultParams()
	params.Mods = []chem.Mod{chem.OxidationM}
	params.MaxModsPerPeptide = 1
	return params
}

// TestBuildDeterminism: tiers are pure functions of the block and config —
// two independent builds must be deeply equal.
func TestBuildDeterminism(t *testing.T) {
	params, cfg := modParams(), score.DefaultConfig()
	ix, a := fragIdxFixture(t, 80, params, cfg)
	b := New(ix, params.Mods, cfg)
	for maxZ := 1; maxZ <= 3; maxZ++ {
		ta, tb := a.Tier(maxZ, KindPasses), b.Tier(maxZ, KindPasses)
		if ta == nil || tb == nil {
			t.Fatalf("maxZ %d: no tier", maxZ)
		}
		if !reflect.DeepEqual(ta, tb) {
			t.Errorf("maxZ %d: rebuilt tier differs", maxZ)
		}
	}
}

// TestTierPostingsMatchFragments holds every bin row of a tier to a
// reference built from spectrum.AppendFragments: the model peptide's and
// each null shuffle's fragments, enumerated in ordinal, pass and slot
// order, land in the row of their bin with their packed key, in that order.
func TestTierPostingsMatchFragments(t *testing.T) {
	params, cfg := modParams(), score.DefaultConfig()
	ix, fx := fragIdxFixture(t, 60, params, cfg)
	for maxZ := 1; maxZ <= 2; maxZ++ {
		tier := fx.Tier(maxZ, KindPasses)
		theo := cfg.Theoretical
		theo.MaxFragmentCharge = maxZ
		want := map[int32][]uint32{}
		for ord := 0; ord < ix.Len(); ord++ {
			pep := ix.At(ord)
			deltas := pep.ModDeltas(params.Mods)
			frags := spectrum.AppendFragments(nil, pep.Seq, deltas, 1, theo)
			if got := tier.NFrags(ord); int(got) != len(frags) {
				t.Fatalf("maxZ %d ord %d: NFrags %d, want %d", maxZ, ord, got, len(frags))
			}
			for pass := 0; pass < nPasses; pass++ {
				key := uint32(ord) << keyOrdShift
				if pass > 0 {
					key |= 1 << keyNullShift
					seq, del := score.ShuffledInto(nil, nil, pep.Seq, deltas, uint64(pass-1))
					frags = spectrum.AppendFragments(frags[:0], seq, del, 1, theo)
				}
				for slot, f := range frags {
					bin := spectrum.BinIndex(f.MZ, cfg.FragmentBinWidth())
					want[bin] = append(want[bin], key|uint32(slot))
				}
			}
		}
		rows := 0
		for r := 0; r+1 < len(tier.rowStart); r++ {
			got := tier.keys[tier.rowStart[r]:tier.rowStart[r+1]]
			if len(got) > 0 {
				rows++
			}
			if bin := tier.minBin + int32(r); !slices.Equal(got, want[bin]) {
				t.Fatalf("maxZ %d bin %d: keys %v, want %v", maxZ, bin, got, want[bin])
			}
		}
		if rows != len(want) {
			t.Errorf("maxZ %d: %d non-empty rows, want %d", maxZ, rows, len(want))
		}
	}
}

// TestPassTierSlotOverflow: a block whose per-pass fragment slots exceed the
// packable range yields a nil tier, and no tier exists beyond the largest
// charge cap.
func TestPassTierSlotOverflow(t *testing.T) {
	_, fx := fragIdxFixture(t, 40, digest.DefaultParams(), score.DefaultConfig())
	if fx.Tier(maxPassCharge+1, KindPasses) != nil {
		t.Error("tier built beyond the largest charge cap")
	}
	// Shrinking the packable range at run time is not possible; verify the
	// guard arithmetic directly.
	maxLen := slices.Max(fx.lens)
	if want := 2 * (int(maxLen) - 1); fx.maxSlots(1) != want {
		t.Errorf("maxSlots(1) = %d, want %d", fx.maxSlots(1), want)
	}
	overflowZ := (maxSlot+1)/(2*(int(maxLen)-1)) + 1
	if overflowZ <= maxPassCharge && fx.Tier(overflowZ, KindPasses) != nil {
		t.Errorf("tier built at charge cap %d despite slot overflow", overflowZ)
	}
}

// TestEmptyBlock: an empty digest index builds an empty (but valid) tier.
func TestEmptyBlock(t *testing.T) {
	ix, err := digest.NewIndex(nil, 0, digest.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 0 {
		t.Fatalf("empty database produced %d peptides", ix.Len())
	}
	tier := New(ix, nil, score.DefaultConfig()).Tier(2, KindPasses)
	if tier == nil {
		t.Fatal("nil tier for empty block")
	}
	if len(tier.rowStart) != 1 || len(tier.keys) != 0 {
		t.Errorf("empty tier holds %d rows, %d postings", len(tier.rowStart)-1, len(tier.keys))
	}
}

// TestTierLookupZeroAlloc: once built, a Tier lookup is an array index.
func TestTierLookupZeroAlloc(t *testing.T) {
	_, fx := fragIdxFixture(t, 40, digest.DefaultParams(), score.DefaultConfig())
	fx.Tier(2, KindPasses)
	if allocs := testing.AllocsPerRun(100, func() {
		if fx.Tier(2, KindPasses) == nil {
			t.Fatal("built tier vanished")
		}
	}); allocs != 0 {
		t.Errorf("%v allocs per warmed Tier lookup, want 0", allocs)
	}
}
