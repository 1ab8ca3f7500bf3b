package ground

import (
	"hash/fnv"
	"testing"
)

// Golden pins for the land mask, computed with the per-cell point-in-polygon
// builder the scanline fill replaced. Any coastline edit changes them and
// must update both here, as a reviewed diff.
const (
	maskDigest       = 0x8402bb32f0e996ba // FNV-1a 64 over the cells packed LSB-first
	maskLandFraction = 0.27127056702224756
)

// pointInPolygon is the reference even-odd ray-casting rule: a point is
// inside when an odd number of edges cross its latitude strictly east of it.
func pointInPolygon(lon, lat float64, poly polygon) bool {
	in := false
	n := len(poly)
	for i, j := 0, n-1; i < n; j, i = i, i+1 {
		xi, yi := poly[i][0], poly[i][1]
		xj, yj := poly[j][0], poly[j][1]
		if (yi > lat) != (yj > lat) &&
			lon < (xj-xi)*(lat-yi)/(yj-yi)+xi {
			in = !in
		}
	}
	return in
}

// isLandExact evaluates the polygons directly (no raster).
func isLandExact(lat, lon float64) bool {
	for _, poly := range continents {
		if pointInPolygon(lon, lat, poly) {
			return true
		}
	}
	return false
}

func TestRasterMatchesReference(t *testing.T) {
	cells := rasterize()
	diff := 0
	for r := 0; r < maskRows; r++ {
		lat := cellLat(r)
		for c := 0; c < maskCols; c++ {
			lon := cellLon(c)
			if want := isLandExact(lat, lon); cells[r*maskCols+c] != want {
				if diff++; diff <= 10 {
					t.Errorf("cell (%v, %v): raster %v, reference %v", lat, lon, !want, want)
				}
			}
		}
	}
	if diff > 0 {
		t.Errorf("%d of %d cells differ from the reference", diff, len(cells))
	}
}

// TestFillRowEdgeCases checks single rows against the reference where the
// scanline fill is easiest to get wrong. Vertices sit on row-centre
// latitudes (10.125, 20.125) and cell-centre longitudes (0.125, 10.125).
func TestFillRowEdgeCases(t *testing.T) {
	square := polygon{{0.125, 10.125}, {10.125, 10.125}, {10.125, 20.125}, {0.125, 20.125}}
	notch := polygon{{0.125, 10.125}, {5.125, 15.125}, {10.125, 10.125}, {10.125, 20.125}, {0.125, 20.125}}
	spike := polygon{{-20.125, 0}, {0.125, 10.125}, {20.125, 0}, {0.125, -10.125}}
	cases := []struct {
		name string
		poly polygon
		lat  float64
	}{
		{"horizontal bottom edge", square, 10.125},
		{"horizontal top edge", square, 20.125},
		{"inside square", square, 15.125},
		{"vertex of notch", notch, 15.125},
		{"notch base vertices", notch, 10.125},
		{"spike apex", spike, 10.125},
		{"spike side vertices", spike, 0},
		{"spike bottom apex", spike, -10.125},
	}
	for _, tc := range cases {
		row := make([]bool, maskCols)
		fillRow(row, tc.poly, tc.lat, nil)
		for c := range row {
			if want := pointInPolygon(cellLon(c), tc.lat, tc.poly); row[c] != want {
				t.Errorf("%s: lon %v: fill %v, reference %v", tc.name, cellLon(c), row[c], want)
			}
		}
	}
}

func TestEmptyOceanRow(t *testing.T) {
	// No polygon reaches below -56° or above 83°: those rows have no
	// crossings and must stay water.
	for _, lat := range []float64{-70.125, 86.875} {
		row := make([]bool, maskCols)
		for name, poly := range continents {
			if xs := fillRow(row, poly, lat, nil); len(xs) != 0 {
				t.Errorf("lat %v: %s has %d crossings", lat, name, len(xs))
			}
		}
		for c, land := range row {
			if land {
				t.Errorf("lat %v lon %v: land in an empty row", lat, cellLon(c))
			}
		}
	}
}

func TestMaskGolden(t *testing.T) {
	cells := rasterize()
	packed := make([]byte, (len(cells)+7)/8)
	for i, land := range cells {
		if land {
			packed[i/8] |= 1 << (i % 8)
		}
	}
	h := fnv.New64a()
	h.Write(packed)
	if got := h.Sum64(); got != maskDigest {
		t.Errorf("mask digest = %#016x, want %#016x", got, uint64(maskDigest))
	}
	if got := LandFraction(); got != maskLandFraction {
		t.Errorf("LandFraction() = %v, want %v", got, maskLandFraction)
	}
}

func BenchmarkRasterize(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rasterize()
	}
}
