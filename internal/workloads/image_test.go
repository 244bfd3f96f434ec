package workloads_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"photon/internal/testutil"
	"photon/internal/workloads"
	"photon/internal/workloads/dnn"
)

// imageCase is one app whose initial image is pinned.
type imageCase struct {
	name  string
	build func() (*workloads.App, error)
}

// imageCases are the Table 2 apps at every figure size (the benchmark's
// sizes among them), the extensions at theirs, PageRank/4096, and the DNNs
// the benchmark and the tests build.
func imageCases() []imageCase {
	var cs []imageCase
	for _, spec := range append(workloads.Table2(), workloads.Extensions()...) {
		for _, size := range spec.Sizes {
			cs = append(cs, imageCase{fmt.Sprintf("%s/%d", spec.Abbr, size),
				func() (*workloads.App, error) { return spec.Build(size) }})
		}
	}
	return append(cs,
		imageCase{"PR/4096", func() (*workloads.App, error) { return workloads.BuildPageRank(4096) }},
		imageCase{"ResNet-18", func() (*workloads.App, error) { return dnn.BuildResNet(18, dnn.DefaultScale()) }},
		imageCase{"VGG-16", func() (*workloads.App, error) { return dnn.BuildVGG(16, dnn.DefaultScale()) }},
		imageCase{"Xfmr-L2", func() (*workloads.App, error) {
			cfg, err := dnn.ScaledTransformer(2, dnn.DefaultScale())
			if err != nil {
				return nil, err
			}
			return dnn.BuildTransformer(cfg)
		}},
		imageCase{"TrainStep/2", func() (*workloads.App, error) { return dnn.BuildTrainingStep(2) }},
	)
}

// imageDigest hashes what an app hands the simulator: each launch's name,
// grid and arguments, then every non-zero 64 KiB page below the allocator's
// break, with its page number. An untouched page reads as zeros, so a page
// that was mapped but left zero hashes like one that was never touched.
func imageDigest(app *workloads.App) string {
	h := sha256.New()
	var b [4]byte
	word := func(v uint32) {
		binary.LittleEndian.PutUint32(b[:], v)
		h.Write(b[:])
	}
	for _, l := range app.Launches {
		fmt.Fprintf(h, "%s %d %d %d|", l.Name, l.NumWorkgroups, l.WarpsPerGroup, len(l.Args))
		for _, a := range l.Args {
			word(a)
		}
	}
	const pageWords = 1 << 14
	end := app.Mem.Alloc(0)
	word(uint32(end))
	for pn := uint64(0); pn*4*pageWords < end; pn++ {
		words := app.Mem.ReadWords(pn*4*pageWords, pageWords)
		zero := true
		for _, w := range words {
			zero = zero && w == 0
		}
		if zero {
			continue
		}
		word(uint32(pn))
		for _, w := range words {
			word(w)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

const imageDigestsFile = "testdata/image_digests.txt"

func readImageDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(imageDigestsFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "#") {
			name, digest, _ := strings.Cut(line, " ")
			want[name] = digest
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestImageDigests pins every builder's initial image byte for byte, so a
// change to how inputs are generated or written cannot move what the
// simulator runs. The race detector slows the largest builds past a
// minute; under it only apps below 16 MiB of image are hashed.
func TestImageDigests(t *testing.T) {
	want := readImageDigests(t)
	for _, c := range imageCases() {
		t.Run(c.name, func(t *testing.T) {
			app, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			if testutil.RaceEnabled && app.Mem.Alloc(0) > 16<<20 {
				t.Skip("large image under the race detector")
			}
			got := imageDigest(app)
			if w, ok := want[c.name]; !ok || got != w {
				t.Errorf("image digest %s, %s has %q", got, imageDigestsFile, w)
			}
		})
	}
}

// buildCases are the apps the repository benchmark builds.
func buildCases() []imageCase {
	table2 := func(abbr string, size int) imageCase {
		return imageCase{fmt.Sprintf("%s/%d", abbr, size), func() (*workloads.App, error) {
			s, err := workloads.FindSpec(abbr)
			if err != nil {
				if s, err = workloads.FindExtension(abbr); err != nil {
					return nil, err
				}
			}
			return s.Build(size)
		}}
	}
	cs := []imageCase{
		table2("ReLU", 131072), table2("FIR", 16384), table2("SPMV", 2048),
		table2("MM", 1024), table2("SC", 4096), table2("HIST", 4096),
		table2("SC", 384), table2("SC", 1024), table2("ReLU", 16384),
	}
	for _, c := range imageCases() {
		if c.name == "ResNet-18" || c.name == "Xfmr-L2" {
			cs = append(cs, c)
		}
	}
	return cs
}

// BenchmarkBuild times building each app the repository benchmark builds,
// and reports live-MB: the heap the built app keeps alive, its image and
// whatever its Check holds, after a collection.
func BenchmarkBuild(b *testing.B) {
	for _, c := range buildCases() {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var ms runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms)
			before := ms.HeapAlloc
			var app *workloads.App
			for i := 0; i < b.N; i++ {
				app = nil
				var err error
				if app, err = c.build(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.GC()
			runtime.ReadMemStats(&ms)
			b.ReportMetric(float64(int64(ms.HeapAlloc)-int64(before))/(1<<20), "live-MB")
			runtime.KeepAlive(app)
		})
	}
}
