// Command arena runs the experiments of "A Game-Based Framework to Compare
// Program Classifiers and Evaders" (CGO 2023) on the from-scratch Go
// reproduction of the paper's stack. Every figure of the evaluation has a
// subcommand; scales default to laptop-friendly sizes and grow to the
// paper's via flags (-classes 104 -per 500 -rounds 10).
//
// Usage:
//
//	arena <command> [flags]
//
// Commands:
//
//	game0      RQ2  baseline classification (Figure 7, first chart)
//	game1      RQ3  evasion with an unaware classifier (Figure 8)
//	game2      RQ3  evasion with an aware classifier (Figure 9)
//	game3      RQ4  optimization-based normalization (Figure 11)
//	embeddings RQ1  compare the nine embeddings (Figures 5 and 6)
//	models     RQ2  compare the six models + memory (Figure 7)
//	classes    RQ5  accuracy vs. class count (Figure 12)
//	distance        histogram distances per evader (Figure 10)
//	speedup    RQ6  optimizer vs. obfuscator performance (Figure 13)
//	discover   RQ7  identify the obfuscator (Figure 14)
//	malware    RQ8  Mirai-family study (Figure 15; -av adds Figure 16)
//	coevo           online adversarial arena: co-evolving evader populations
//	                vs. an incrementally retrained classifier
//	serve           HTTP classification service on trained model snapshots
//	loadgen         drive a serve instance and report latency quantiles
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ml"
	"repro/internal/passes"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "game0", "game1", "game2", "game3":
		err = cmdGame(int(cmd[4]-'0'), args)
	case "gen":
		err = cmdGen(args)
	case "all":
		err = cmdAll(args)
	case "embeddings":
		err = cmdEmbeddings(args)
	case "models":
		err = cmdModels(args)
	case "classes":
		err = cmdClasses(args)
	case "distance":
		err = cmdDistance(args)
	case "speedup":
		err = cmdSpeedup(args)
	case "discover":
		err = cmdDiscover(args)
	case "malware":
		err = cmdMalware(args)
	case "coevo":
		err = cmdCoevo(args)
	case "healthz":
		err = cmdHealthz(args)
	case "serve":
		err = cmdServe(args)
	case "gateway":
		err = cmdGateway(args)
	case "push":
		err = cmdPush(args)
	case "loadgen":
		err = cmdLoadgen(args)
	case "fuzz":
		err = cmdFuzz(args)
	case "report":
		err = cmdReport(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "arena: unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "arena: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: arena <command> [flags]

commands:
  game0 | game1 | game2 | game3   play one adversarial game
  gen                             generate a dataset and save it as JSON
  all                             run every experiment at a reduced scale
  embeddings                      compare the nine program embeddings (Fig 5/6)
  models                          compare the six models (Fig 7)
  classes                         accuracy vs. number of classes (Fig 12)
  distance                        histogram distance per evader (Fig 10)
  speedup                         optimizer vs. obfuscator runtimes (Fig 13)
  discover                        obfuscator identification (Fig 14)
  malware                         Mirai-family study (Fig 15; -av for Fig 16)
  coevo [-gens n] [-strategy s] [-push url]
                                  online adversarial arena: evader populations
                                  co-evolve against a classifier retrained each
                                  generation on its missed evasions (Elo-scored,
                                  checkpointed with rollback; -push hot-swaps
                                  every accepted checkpoint into a fleet)
  healthz [-want ok] [-healthy n] poll a serve or gateway /healthz until it
                                  reports the wanted status (smoke-test helper)
  serve                           HTTP classification service on model snapshots
                                  (micro-batched predict, 429 overload shedding,
                                  hot-swappable snapshots, graceful drain on SIGTERM)
  gateway [-spawn n | -replicas a,b,c]
                                  sharded front tier over N serve replicas:
                                  consistent-hash routing, health probing, retries,
                                  hedged requests, fleet-wide snapshot hot-swap
  push -model m -snap file.snap   hot-swap a model snapshot through a gateway
                                  (or a single serve instance)
  loadgen [-qps n] [-dur d] [-conc n] [-sweep a,b,c] [-open] [-strict]
                                  drive a serve instance or gateway and report
                                  latency quantiles + throughput (per-replica
                                  quantiles when the target is a gateway)
  fuzz [-n n] [-seed s] [-dur d]  differential-fuzz every pass, pipeline and
                                  obfuscator against the O0 interpreter oracle;
                                  shrunk failing programs land in -crashers
  report [-tol x] baseline.json candidate.json
                                  diff two run manifests (accuracy + timings);
                                  -tol fails the run on regressions beyond x

every experiment command also accepts:
  -out <path|auto>                write a JSON run manifest (config, seed,
                                  host, per-cell accuracies, phase timings,
                                  cache and kernel counters)
  -debug-addr <addr>              serve expvar + pprof for live profiling

run "arena <command> -h" for the command's flags`)
}

// common flags
type commonFlags struct {
	classes  int
	perClass int
	rounds   int
	seed     int64
	dataset  string
	jobs     int
	verbose  bool
	obs      *obsFlags
}

func addCommon(fs *flag.FlagSet) *commonFlags {
	c := &commonFlags{obs: addObs(fs)}
	fs.IntVar(&c.classes, "classes", 16, "number of problem classes (paper: 104)")
	fs.IntVar(&c.perClass, "per", 24, "solutions per class (paper: 500)")
	fs.IntVar(&c.rounds, "rounds", 3, "repetitions per configuration (paper: 10)")
	fs.Int64Var(&c.seed, "seed", 1, "master random seed")
	fs.StringVar(&c.dataset, "dataset", "", "load the dataset from a JSON file (see 'arena gen') instead of generating")
	fs.IntVar(&c.jobs, "j", 0, "parallel workers for rounds and experiment cells (0 = GOMAXPROCS)")
	fs.BoolVar(&c.verbose, "v", false, "print compile-cache and per-phase timing counters")
	fs.Func("train-workers", "goroutines per model Fit/evaluation (0 = GOMAXPROCS); "+
		"results are byte-identical for any value — set 1 when -j already saturates the machine",
		func(s string) error {
			n, err := strconv.Atoi(s)
			if err != nil {
				return fmt.Errorf("bad -train-workers %q: %w", s, err)
			}
			ml.SetTrainWorkers(n)
			return nil
		})
	return c
}

// workers resolves the -j flag.
func (c *commonFlags) workers() int {
	if c.jobs > 0 {
		return c.jobs
	}
	return runtime.GOMAXPROCS(0)
}

// runCells runs fn(0..n-1) on up to workers goroutines (core.ForEach) and
// returns the first error in cell order, so error reporting does not depend
// on scheduling.
func runCells(n, workers int, fn func(i int) error) error {
	errs := make([]error, n)
	core.ForEach(workers, n, func(i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// loadSet builds or loads the dataset per the common flags.
func (c *commonFlags) loadSet() (*dataset.Set, error) {
	if c.dataset != "" {
		return dataset.LoadFile(c.dataset)
	}
	return dataset.Generate(c.classes, c.perClass, c.seed)
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	c := addCommon(fs)
	out := fs.String("o", "dataset.json", "output file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rec, err := c.obs.begin("gen", fs, c.seed, c.verbose)
	if err != nil {
		return err
	}
	set, err := dataset.Generate(c.classes, c.perClass, c.seed)
	if err != nil {
		return err
	}
	if err := set.SaveFile(*out); err != nil {
		return err
	}
	fmt.Printf("wrote %d samples (%d classes) to %s\n", len(set.Samples), set.NumClasses, *out)
	return rec.finish()
}

// cmdAll plays the role of the original artifact's "./run.sh all": every
// experiment in sequence, at a scale that finishes in minutes rather than
// the artifact's 19 days.
func cmdAll(args []string) error {
	fs := flag.NewFlagSet("all", flag.ExitOnError)
	classes := fs.Int("classes", 10, "problem classes for the game experiments")
	per := fs.Int("per", 16, "solutions per class")
	rounds := fs.Int("rounds", 2, "rounds per configuration")
	seed := fs.Int64("seed", 1, "master seed")
	jobs := fs.Int("j", 0, "parallel workers passed to every step (0 = GOMAXPROCS)")
	trainWorkers := fs.String("train-workers", "", "per-Fit goroutines passed to every step (empty = leave default)")
	verbose := fs.Bool("v", false, "print per-step wall clock and compile-cache counters")
	o := addObs(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rec, err := o.begin("all", fs, *seed, *verbose)
	if err != nil {
		return err
	}
	c := func(extra ...string) []string {
		out := []string{
			"-classes", fmt.Sprint(*classes), "-per", fmt.Sprint(*per),
			"-rounds", fmt.Sprint(*rounds), "-seed", fmt.Sprint(*seed),
			"-j", fmt.Sprint(*jobs),
		}
		if *trainWorkers != "" {
			out = append(out, "-train-workers", *trainWorkers)
		}
		if *verbose {
			out = append(out, "-v")
		}
		return append(out, extra...)
	}
	steps := []struct {
		title string
		run   func() error
	}{
		{"Figure 7 — models (game 0)", func() error { return cmdModels(c()) }},
		{"Figure 8 — game 1 (evader: ollvm)", func() error { return cmdGame(1, c("-evader", "ollvm")) }},
		{"Figure 9 — game 2 (evader: ollvm)", func() error { return cmdGame(2, c("-evader", "ollvm")) }},
		{"Figure 11 — game 3 (evader: rs, norm O3)", func() error { return cmdGame(3, c("-evader", "rs", "-norm", "O3")) }},
		{"Figure 12 — class sweep", func() error {
			sweepArgs := []string{"-per", fmt.Sprint(*per), "-rounds", fmt.Sprint(*rounds),
				"-seed", fmt.Sprint(*seed), "-j", fmt.Sprint(*jobs), "-sweep", "4,8,16"}
			if *verbose {
				sweepArgs = append(sweepArgs, "-v")
			}
			return cmdClasses(sweepArgs)
		}},
		{"Figure 10 — histogram distances", func() error { return cmdDistance(c()) }},
		{"Figure 13 — speedup", func() error { return cmdSpeedup([]string{"-seed", fmt.Sprint(*seed)}) }},
		{"Figure 14 — obfuscator identification", func() error {
			return cmdDiscover([]string{"-per", "15", "-seed", fmt.Sprint(*seed)})
		}},
		{"Figures 15/16 — malware study", func() error {
			return cmdMalware([]string{"-train", "10", "-challenge", "5", "-av",
				"-seed", fmt.Sprint(*seed)})
		}},
	}
	for _, s := range steps {
		fmt.Printf("\n=== %s ===\n", s.title)
		stepStart := time.Now()
		if err := s.run(); err != nil {
			return fmt.Errorf("%s: %w", s.title, err)
		}
		if *verbose {
			fmt.Printf("step wall clock: %v\n", time.Since(stepStart).Round(time.Millisecond))
		}
	}
	if *verbose {
		fmt.Println()
	}
	return rec.finish()
}

func newTable() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

func cmdGame(game int, args []string) error {
	fs := flag.NewFlagSet(fmt.Sprintf("game%d", game), flag.ExitOnError)
	c := addCommon(fs)
	embedding := fs.String("embedding", "histogram", "program embedding")
	model := fs.String("model", "rf", "classification model")
	evader := fs.String("evader", "ollvm", "evader transformation (games 1-3)")
	norm := fs.String("norm", "O3", "normalizer for game 3 (O0..O3)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	lvl, err := passes.ParseLevel(*norm)
	if err != nil {
		return err
	}
	rec, err := c.obs.begin(fmt.Sprintf("game%d", game), fs, c.seed, c.verbose)
	if err != nil {
		return err
	}
	set, err := c.loadSet()
	if err != nil {
		return err
	}
	cfg := core.GameConfig{
		Game:   game,
		Evader: *evader,
		Pipeline: core.Pipeline{
			Embedding: *embedding, Model: *model, Normalizer: lvl,
		},
		Seed: c.seed,
	}
	results, sum, err := core.RunRoundsN(set, cfg, c.rounds, c.workers())
	if err != nil {
		return err
	}
	cell := fmt.Sprintf("game%d/%s/%s", game, *embedding, *model)
	if game >= 1 {
		cell += "/" + *evader
	}
	if game == 3 {
		cell += "/" + lvl.String()
	}
	rec.addResults(cell, results)
	w := newTable()
	fmt.Fprintf(w, "game\tevader\tembedding\tmodel\taccuracy\tF1\n")
	for _, r := range results {
		fmt.Fprintf(w, "%d\t%s\t%s\t%s\t%.4f\t%.4f\n", game, *evader, *embedding, *model, r.Accuracy, r.F1)
	}
	w.Flush()
	fmt.Printf("summary: %s  (train %d / test %d per round)\n",
		sum, results[0].NumTrain, results[0].NumTest)
	return rec.finish()
}

func cmdEmbeddings(args []string) error {
	fs := flag.NewFlagSet("embeddings", flag.ExitOnError)
	c := addCommon(fs)
	games := fs.String("games", "0", "comma-separated games to play (paper: 0 then 1,2,3)")
	evader := fs.String("evader", "ollvm", "evader for games 1-3")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rec, err := c.obs.begin("embeddings", fs, c.seed, c.verbose)
	if err != nil {
		return err
	}
	set, err := c.loadSet()
	if err != nil {
		return err
	}
	embeddings := []string{
		"cfg", "cfg_compact", "cdfg", "cdfg_compact", "cdfg_plus",
		"programl", "ir2vec", "milepost", "histogram",
	}
	// Build the (game, embedding) cell matrix up front so the cells can run
	// on a worker pool and still print in the paper's order.
	type cell struct {
		game    int
		emb     string
		model   string
		results []core.GameResult
		sum     string
	}
	var cells []*cell
	for _, gs := range strings.Split(*games, ",") {
		var game int
		if _, err := fmt.Sscanf(strings.TrimSpace(gs), "%d", &game); err != nil {
			return fmt.Errorf("bad game %q", gs)
		}
		for _, emb := range embeddings {
			// Figure 5 uses the dgcnn for graphs and its cnn variant for
			// vector embeddings (the only models fitting all embeddings).
			model := "dgcnn"
			if emb == "ir2vec" || emb == "milepost" || emb == "histogram" {
				model = "cnn"
			}
			cells = append(cells, &cell{game: game, emb: emb, model: model})
		}
	}
	err = runCells(len(cells), c.workers(), func(i int) error {
		cl := cells[i]
		cfg := core.GameConfig{
			Game: cl.game, Evader: *evader,
			Pipeline: core.Pipeline{Embedding: cl.emb, Model: cl.model, Normalizer: passes.O3},
			Seed:     c.seed,
		}
		results, sum, err := core.RunRoundsN(set, cfg, c.rounds, c.workers())
		if err != nil {
			return err
		}
		cl.results = results
		cl.sum = fmt.Sprintf("%.4f\t%.4f", sum.Mean, sum.Std)
		return nil
	})
	if err != nil {
		return err
	}
	w := newTable()
	fmt.Fprintf(w, "game\tembedding\tmodel\tmean acc\tstd\n")
	for _, cl := range cells {
		fmt.Fprintf(w, "%d\t%s\t%s\t%s\n", cl.game, cl.emb, cl.model, cl.sum)
		rec.addResults(fmt.Sprintf("game%d/%s/%s", cl.game, cl.emb, cl.model), cl.results)
	}
	w.Flush()
	return rec.finish()
}

func cmdModels(args []string) error {
	fs := flag.NewFlagSet("models", flag.ExitOnError)
	c := addCommon(fs)
	embedding := fs.String("embedding", "histogram", "embedding fed to every model")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rec, err := c.obs.begin("models", fs, c.seed, c.verbose)
	if err != nil {
		return err
	}
	set, err := c.loadSet()
	if err != nil {
		return err
	}
	models := ml.VectorNames()
	rows := make([]string, len(models))
	cellResults := make([][]core.GameResult, len(models))
	err = runCells(len(models), c.workers(), func(i int) error {
		cfg := core.GameConfig{
			Game:     0,
			Pipeline: core.Pipeline{Embedding: *embedding, Model: models[i]},
			Seed:     c.seed,
		}
		results, sum, err := core.RunRoundsN(set, cfg, c.rounds, c.workers())
		if err != nil {
			return err
		}
		cellResults[i] = results
		rows[i] = fmt.Sprintf("%s\t%.4f\t%.4f\t%s", models[i], sum.Mean, sum.Std,
			fmtBytes(results[len(results)-1].ModelMemory))
		return nil
	})
	if err != nil {
		return err
	}
	w := newTable()
	fmt.Fprintf(w, "model\tmean acc\tstd\tmodel memory\n")
	for i, row := range rows {
		fmt.Fprintln(w, row)
		rec.addResults(fmt.Sprintf("game0/%s/%s", *embedding, models[i]), cellResults[i])
	}
	w.Flush()
	return rec.finish()
}

func cmdClasses(args []string) error {
	fs := flag.NewFlagSet("classes", flag.ExitOnError)
	c := addCommon(fs)
	model := fs.String("model", "rf", "classification model")
	sweep := fs.String("sweep", "4,8,16,32,64", "class counts to evaluate")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var counts []int
	for _, cs := range strings.Split(*sweep, ",") {
		var m int
		if _, err := fmt.Sscanf(strings.TrimSpace(cs), "%d", &m); err != nil {
			return fmt.Errorf("bad class count %q", cs)
		}
		counts = append(counts, m)
	}
	rec, err := c.obs.begin("classes", fs, c.seed, c.verbose)
	if err != nil {
		return err
	}
	rows := make([]string, len(counts))
	cellResults := make([][]core.GameResult, len(counts))
	err = runCells(len(counts), c.workers(), func(i int) error {
		m := counts[i]
		set, err := dataset.Generate(m, c.perClass, c.seed)
		if err != nil {
			return err
		}
		cfg := core.GameConfig{
			Game:     0,
			Pipeline: core.Pipeline{Embedding: "histogram", Model: *model},
			Seed:     c.seed,
		}
		results, sum, err := core.RunRoundsN(set, cfg, c.rounds, c.workers())
		if err != nil {
			return err
		}
		f1 := 0.0
		for _, r := range results {
			f1 += r.F1
		}
		f1 /= float64(len(results))
		cellResults[i] = results
		rows[i] = fmt.Sprintf("%d\t%s\t%.4f\t%.4f\t%.4f", m, *model, sum.Mean, f1, 1.0/float64(m))
		return nil
	})
	if err != nil {
		return err
	}
	w := newTable()
	fmt.Fprintf(w, "classes\tmodel\tmean acc\tmean F1\trandom\n")
	for i, row := range rows {
		fmt.Fprintln(w, row)
		rec.addResults(fmt.Sprintf("classes=%d/%s", counts[i], *model), cellResults[i])
	}
	w.Flush()
	return rec.finish()
}

func cmdDistance(args []string) error {
	fs := flag.NewFlagSet("distance", flag.ExitOnError)
	c := addCommon(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rec, err := c.obs.begin("distance", fs, c.seed, c.verbose)
	if err != nil {
		return err
	}
	set, err := dataset.Generate(c.classes, min(c.perClass, 10), c.seed)
	if err != nil {
		return err
	}
	transforms := []string{"none", "O3", "bcf", "fla", "sub", "ollvm", "rs", "mcmc", "drlsg"}
	res, err := core.DistanceAnalysis(set.Samples, transforms, c.seed)
	if err != nil {
		return err
	}
	w := newTable()
	fmt.Fprintf(w, "transform\tmean dist\tstd\tmax\n")
	for _, r := range res {
		fmt.Fprintf(w, "%s\t%.2f\t%.2f\t%.2f\n", r.Transform, r.Summary.Mean, r.Summary.Std, r.Summary.Max)
		rec.man.AddSummaryCell("distance/"+r.Transform, "distance", r.Summary)
	}
	w.Flush()
	return rec.finish()
}

func cmdSpeedup(args []string) error {
	fs := flag.NewFlagSet("speedup", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "random seed for the obfuscator")
	o := addObs(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rec, err := o.begin("speedup", fs, *seed, false)
	if err != nil {
		return err
	}
	rep, err := core.SpeedupEngine(*seed, "vm")
	if err != nil {
		return err
	}
	w := newTable()
	fmt.Fprintf(w, "program\tO0 steps\tO3 steps\tollvm steps\tO3 speedup\tollvm slowdown\n")
	for _, r := range rep.Rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%.2fx\t%.2fx\n",
			r.Name, r.O0Steps, r.O3Steps, r.OllvmSteps, r.O3Speedup, r.OllvmSlowdown)
		rec.man.AddCell("speedup/"+r.Name+"/O3", "speedup", []float64{r.O3Speedup})
		rec.man.AddCell("speedup/"+r.Name+"/ollvm", "slowdown", []float64{r.OllvmSlowdown})
	}
	w.Flush()
	fmt.Printf("geomean: O3 %.2fx faster, O-LLVM %.2fx slower (paper: 2.32x / 8.33x)\n",
		rep.GeoO3Speedup, rep.GeoOllvmSlowdown)
	rec.man.AddCell("speedup/geomean/O3", "speedup", []float64{rep.GeoO3Speedup})
	rec.man.AddCell("speedup/geomean/ollvm", "slowdown", []float64{rep.GeoOllvmSlowdown})
	return rec.finish()
}

func cmdDiscover(args []string) error {
	fs := flag.NewFlagSet("discover", flag.ExitOnError)
	per := fs.Int("per", 40, "programs per transformer (paper: 500)")
	model := fs.String("model", "rf", "classification model")
	seed := fs.Int64("seed", 1, "random seed")
	o := addObs(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rec, err := o.begin("discover", fs, *seed, false)
	if err != nil {
		return err
	}
	w := newTable()
	fmt.Fprintf(w, "dataset\taccuracy\tF1\trandom\n")
	for d := 1; d <= 4; d++ {
		res, err := core.Discover(core.DiscoverConfig{
			Dataset: d, PerTransformer: *per, Model: *model, Seed: *seed,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "dataset%d\t%.4f\t%.4f\t%.4f\n", d, res.Accuracy, res.F1, res.RandomHit)
		w.Flush()
		cell := rec.man.AddCell(fmt.Sprintf("discover/dataset%d/%s", d, *model),
			"accuracy", []float64{res.Accuracy})
		cell.F1 = []float64{res.F1}
	}
	return rec.finish()
}

func cmdMalware(args []string) error {
	fs := flag.NewFlagSet("malware", flag.ExitOnError)
	trainPos := fs.Int("train", 36, "family training seeds (paper: 36)")
	challenge := fs.Int("challenge", 12, "challenges per label (paper: 12)")
	av := fs.Bool("av", false, "also run the signature-scanner comparison (Figure 16)")
	seed := fs.Int64("seed", 1, "random seed")
	o := addObs(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rec, err := o.begin("malware", fs, *seed, false)
	if err != nil {
		return err
	}
	res, err := core.MalwareStudy(core.MalwareConfig{
		TrainPos: *trainPos, Challenge: *challenge,
		Models: []string{"cnn", "rf"}, Seed: *seed,
	})
	if err != nil {
		return err
	}
	w := newTable()
	fmt.Fprintf(w, "training set\tsamples\tcnn acc\trf acc\n")
	for i := range res.TrainSizes {
		fmt.Fprintf(w, "t%d\t%d\t%.4f\t%.4f\n", i+1, res.TrainSizes[i],
			res.Acc["cnn"][i], res.Acc["rf"][i])
		rec.man.AddCell(fmt.Sprintf("malware/t%d/cnn", i+1), "accuracy", []float64{res.Acc["cnn"][i]})
		rec.man.AddCell(fmt.Sprintf("malware/t%d/rf", i+1), "accuracy", []float64{res.Acc["rf"][i]})
	}
	w.Flush()
	if !*av {
		return rec.finish()
	}
	rows, err := core.AntivirusComparison(core.MalwareConfig{
		TrainPos: *trainPos, Challenge: *challenge, Seed: *seed,
	})
	if err != nil {
		return err
	}
	fmt.Println("\nsignature scanner vs specialised rf (Figure 16):")
	w = newTable()
	fmt.Fprintf(w, "transform\tscanner acc\trf(full) acc\n")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.4f\t%.4f\n", r.Transformer, r.AVDetect, r.RFDetect)
		rec.man.AddCell("malware/av/"+r.Transformer+"/scanner", "accuracy", []float64{r.AVDetect})
		rec.man.AddCell("malware/av/"+r.Transformer+"/rf", "accuracy", []float64{r.RFDetect})
	}
	w.Flush()
	return rec.finish()
}

func fmtBytes(n int64) string {
	switch {
	case n > 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n > 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
