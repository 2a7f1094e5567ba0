package main

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"image"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"djinn/internal/gateway"
	"djinn/internal/models"
	"djinn/internal/service"
	"djinn/internal/tensor"
	"djinn/internal/tonic"
	"djinn/internal/workload"
)

// Load-generator concurrency. This sandbox has nproc = 2; the count is
// part of the benchmark's definition, not read from the host.
const clientCount = 2

// Query kinds: one Tonic application call each.
const (
	kindPOS  = "pos"
	kindCHK  = "chk"
	kindNER  = "ner"
	kindDIG  = "dig"
	kindIMC  = "imc"
	kindPipe = "asr-pos-ner"
	kindASR  = "asr" // the ladder's ASR row; workloads send kindPipe
)

// query is one generated input with the reply the reference gave for it.
type query struct {
	kind   string
	text   string
	digits [][]float32
	img    image.Image
	audio  []float64 // PCM16-rounded, what the gateway decodes from body
	body   []byte    // HTTP workloads: the JSON request
	want   string    // canonical expected reply; "" = warm-up only, unchecked
}

// arrival is one open-loop request: when it is due, counted from the
// start of the measured window, and which rate step it belongs to.
type arrival struct {
	due  time.Duration
	step int
	q    *query
}

// population is everything a workload sends, generated from the seed
// before the clock starts.
type population struct {
	distinct []*query   // every checked query, once, for the oracle
	warm     [][]*query // per client: the fixed warm-up that ends set-up
	cycles   [][]*query // closed loop: per client, a fixed sequence repeated
	schedule []arrival  // open loop
	stepLen  time.Duration
}

type workloadDef struct {
	name      string
	transport string // "djrt" or "http"
	open      bool
	// procs is GOMAXPROCS: 2, the sandbox's cores, for the closed loops,
	// whose clients only ever wait for a reply. The open loop gets a
	// third: its generator must start a query the moment it is due, and
	// with two Ps that moment finds both taken (forward passes, the
	// garbage collector's mark workers) about once in a hundred, for 1-3
	// ms. With a P to spare the p99 of that lag is 0.2 ms.
	procs    int
	apps     []models.App
	replicas int
	// cacheBudget is the gateway response-cache byte budget (0 = the
	// gateway's default).
	cacheBudget int64
	// limit is the workload's fixed latency limit for slo_goodput_qps:
	// about twice the seed latency_p95_ms (open loop: at r2).
	limit time.Duration
	// rates are the open-loop steps r1..r3 in queries per second: about
	// 25 %, 50 % and 125 % of the seed's saturated throughput, which is
	// its throughput_qps (the replies r3's overload gets back, ~480/s).
	rates [3]float64
	// primary is the app whose ladder row feeds the un-suffixed
	// service.djrt_* metrics.
	primary  models.App
	populate func(rng *tensor.RNG, seconds float64, rates [3]float64) *population
}

var workloads = []*workloadDef{
	{
		name: "nlp_djrt_closed", transport: "djrt",
		procs: 2, apps: []models.App{models.POS, models.CHK, models.NER}, replicas: 1,
		limit: 30 * time.Millisecond, primary: models.POS,
		populate: populateNLPClosed,
	},
	{
		name: "img_djrt_closed", transport: "djrt",
		procs: 2, apps: []models.App{models.DIG, models.IMC}, replicas: 1,
		limit: 1000 * time.Millisecond, primary: models.IMC,
		populate: populateIMG,
	},
	{
		name: "nlp_http_open", transport: "http", open: true,
		procs: 3, apps: []models.App{models.POS, models.NER}, replicas: 2,
		cacheBudget: hotCacheBudget,
		limit:       30 * time.Millisecond, rates: [3]float64{120, 240, 600}, primary: models.POS,
		populate: populateNLPOpen,
	},
	{
		name: "asr_pipe_http_closed", transport: "http",
		procs: 2, apps: []models.App{models.ASR, models.POS, models.NER}, replicas: 2,
		limit: 400 * time.Millisecond, primary: models.ASR,
		populate: populateASRPipe,
	},
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

const (
	nlpSentences = 64
	warmNLP      = 16

	digBatches = 6
	imcImages  = 3

	hotSentences = 256
	// hotCacheBudget holds about half the hot set's ~1.3 KB replies, so
	// hits, fills and LRU evictions all occur.
	hotCacheBudget = 256 << 10
	zipfExponent   = 1.0

	// utteranceSeconds is shorter than the 0.2 s the issue names: two
	// clients finish ~6 pipelines/s at 0.2 s, too few for ten samples
	// beyond p95 inside the driver's run length.
	utteranceSeconds = 0.12
	pipeUtterances   = 12
)

func newSentence(rng *tensor.RNG, seen map[string]bool) string {
	for {
		s := workload.Sentence(rng, workload.SentenceWords)
		if !seen[s] {
			seen[s] = true
			return s
		}
	}
}

// populateNLPClosed: POS, CHK, POS, NER in a fixed 2:1:1 cycle over a
// fixed pool of 28-word sentences.
func populateNLPClosed(rng *tensor.RNG, _ float64, _ [3]float64) *population {
	cycle := []string{kindPOS, kindCHK, kindPOS, kindNER}
	seen := map[string]bool{}
	sentences := make([]string, nlpSentences)
	for i := range sentences {
		sentences[i] = newSentence(rng, seen)
	}
	p := &population{}
	byKey := map[string]*query{}
	get := func(kind string, si int) *query {
		key := kind + "/" + strconv.Itoa(si)
		if q, ok := byKey[key]; ok {
			return q
		}
		q := &query{kind: kind, text: sentences[si]}
		byKey[key] = q
		p.distinct = append(p.distinct, q)
		return q
	}
	for c := 0; c < clientCount; c++ {
		var seq []*query
		for i := 0; i < len(cycle)*nlpSentences; i++ {
			seq = append(seq, get(cycle[i%len(cycle)], (c*nlpSentences/clientCount+i)%nlpSentences))
		}
		p.cycles = append(p.cycles, seq)
		p.warm = append(p.warm, seq[len(seq)-warmNLP:])
	}
	return p
}

// populateIMG: client 0 sends DIG.Recognize (100 digits), client 1
// sends IMC.Classify (one 640×480 image), each over small fixed pools
// (every distinct input costs the oracle a serial forward pass). One
// app per client keeps the two out of each other's batches: two
// clients on one cycle send in lockstep, the service batches every
// pair into one forward pass on one core, and the run yields too few
// samples for p95. A DIG query takes about a quarter of an IMC query,
// so the mix still comes out near 4:1.
func populateIMG(rng *tensor.RNG, _ float64, _ [3]float64) *population {
	p := &population{}
	var digs, imgs []*query
	for i := 0; i < digBatches; i++ {
		d, _ := workload.Digits(rng, workload.DIGImages)
		digs = append(digs, &query{kind: kindDIG, digits: d})
	}
	for i := 0; i < imcImages; i++ {
		imgs = append(imgs, &query{kind: kindIMC, img: workload.Image(rng, 640, 480)})
	}
	p.distinct = append(append(p.distinct, digs...), imgs...)
	p.cycles = [][]*query{digs, imgs}
	p.warm = [][]*query{digs[:2], imgs[:1]}
	return p
}

func textBody(app, text string) []byte {
	b, err := json.Marshal(struct {
		App  string `json:"app"`
		Text string `json:"text"`
	}{app, text})
	if err != nil {
		panic(err) // strings always marshal
	}
	return b
}

// zipfCDF is the cumulative distribution of ranks 1..n with
// probability ∝ 1/rank^s.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	var sum float64
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

func drawCDF(cdf []float64, u float64) int {
	i := sort.SearchFloat64s(cdf, u)
	if i >= len(cdf) {
		i = len(cdf) - 1
	}
	return i
}

// buildSchedule lays out the open-loop arrivals: len(rates) equal
// steps, exponential gaps at each step's rate, all decided before the
// clock starts. pick chooses the query of the n-th arrival.
func buildSchedule(rng *tensor.RNG, rates []float64, stepLen time.Duration, pick func(n int) *query) []arrival {
	var out []arrival
	for step, rate := range rates {
		begin := time.Duration(step) * stepLen
		t := begin
		for {
			t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
			if t >= begin+stepLen {
				break
			}
			out = append(out, arrival{due: t, step: step, q: pick(len(out))})
		}
	}
	return out
}

// populateNLPOpen: POS/NER text queries; every other arrival is a Zipf
// draw from a hot set, the rest are sentences never seen before.
func populateNLPOpen(rng *tensor.RNG, seconds float64, rates [3]float64) *population {
	p := &population{stepLen: time.Duration(seconds / float64(len(rates)) * float64(time.Second))}
	apps := []string{kindPOS, kindNER}
	seen := map[string]bool{}
	mk := func(n int, checked bool) *query {
		app := apps[n%len(apps)]
		text := newSentence(rng, seen)
		q := &query{kind: app, text: text, body: textBody(app, text)}
		if checked {
			p.distinct = append(p.distinct, q)
		}
		return q
	}
	hot := make([]*query, hotSentences)
	for i := range hot {
		hot[i] = mk(i, true)
	}
	cdf := zipfCDF(hotSentences, zipfExponent)
	p.schedule = buildSchedule(rng, rates[:], p.stepLen, func(n int) *query {
		if n%2 == 0 {
			return hot[drawCDF(cdf, rng.Float64())]
		}
		// n is odd here: n/2 alternates the app over the unique arrivals.
		return mk(n/2, true)
	})
	for c := 0; c < clientCount; c++ {
		var warm []*query
		for i := 0; i < warmNLP; i++ {
			warm = append(warm, mk(i, false))
		}
		p.warm = append(p.warm, warm)
	}
	return p
}

// populateASRPipe: /v1/pipeline asr → pos ∥ ner over a fixed pool of
// short utterances (the pipeline endpoint has no response cache, so
// repeats cost the same as fresh audio).
func populateASRPipe(rng *tensor.RNG, _ float64, _ [3]float64) *population {
	p := &population{}
	for i := 0; i < pipeUtterances; i++ {
		pcm := gateway.EncodePCM16(workload.Utterance(rng, utteranceSeconds))
		audio, err := gateway.DecodePCM16(pcm)
		if err != nil {
			panic(err) // EncodePCM16 output is always even-length
		}
		body, err := json.Marshal(struct {
			Pipeline string `json:"pipeline"`
			Audio    string `json:"audio"`
		}{kindPipe, base64.StdEncoding.EncodeToString(pcm)})
		if err != nil {
			panic(err)
		}
		p.distinct = append(p.distinct, &query{kind: kindPipe, audio: audio, body: body})
	}
	for c := 0; c < clientCount; c++ {
		var seq []*query
		for i := range p.distinct {
			seq = append(seq, p.distinct[(c*pipeUtterances/clientCount+i)%pipeUtterances])
		}
		p.cycles = append(p.cycles, seq)
		p.warm = append(p.warm, seq[len(seq)-2:])
	}
	return p
}

// tonicApps is one set of Tonic applications over one backend.
type tonicApps struct {
	pos *tonic.POS
	chk *tonic.CHK
	ner *tonic.NER
	dig *tonic.DIG
	imc *tonic.IMC
	asr *tonic.ASR
}

func newTonicApps(b service.Backend) *tonicApps {
	return &tonicApps{
		pos: tonic.NewPOS(b), chk: tonic.NewCHK(b), ner: tonic.NewNER(b),
		dig: tonic.NewDIG(b), imc: tonic.NewIMC(b), asr: tonic.NewASR(b),
	}
}

func tagString(ws []tonic.TaggedWord) string {
	tags := make([]string, len(ws))
	for i, w := range ws {
		tags[i] = w.Tag
	}
	return strings.Join(tags, " ")
}

// run makes one query's application call and renders the reply in the
// canonical form the oracle compares: tags, top-1 classes, or
// transcript|pos tags|ner tags.
func (a *tonicApps) run(q *query) (string, error) {
	switch q.kind {
	case kindPOS:
		ws, err := a.pos.Tag(q.text)
		return tagString(ws), err
	case kindCHK:
		ws, err := a.chk.Chunk(q.text)
		return tagString(ws), err
	case kindNER:
		ws, err := a.ner.Recognize(q.text)
		return tagString(ws), err
	case kindDIG:
		preds, err := a.dig.Recognize(q.digits)
		var sb strings.Builder
		for _, p := range preds {
			sb.WriteString(p.Label)
		}
		return sb.String(), err
	case kindIMC:
		p, err := a.imc.Classify(q.img)
		return strconv.Itoa(p.Class), err
	case kindASR:
		t, err := a.asr.Transcribe(q.audio)
		return t.Text, err
	case kindPipe:
		t, err := a.asr.Transcribe(q.audio)
		if err != nil {
			return "", err
		}
		if t.Text == "" {
			return "", fmt.Errorf("empty transcript")
		}
		pos, err := a.pos.Tag(t.Text)
		if err != nil {
			return "", err
		}
		ner, err := a.ner.Recognize(t.Text)
		return t.Text + "|" + tagString(pos) + "|" + tagString(ner), err
	}
	return "", fmt.Errorf("unknown query kind %q", q.kind)
}

// newReference builds the oracle's server: in-process, one worker, and
// a batch target of one query's instances, so every query it answers
// is a batch of its own.
func newReference(apps []models.App) (*service.Server, error) {
	srv := service.NewServer()
	srv.SetLogger(func(string, ...any) {})
	for _, a := range apps {
		err := srv.Register(tonic.ServiceName(a), models.BuildCached(a), service.AppConfig{
			BatchInstances: workload.Get(a).Instances, Workers: 1,
		})
		if err != nil {
			srv.Close()
			return nil, err
		}
	}
	return srv, nil
}

// fillOracle computes every distinct query's expected reply once. Two
// references split the list; each is driven serially.
func fillOracle(apps []models.App, queries []*query) error {
	errs := make([]error, clientCount)
	var wg sync.WaitGroup
	for c := 0; c < clientCount; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ref, err := newReference(apps)
			if err != nil {
				errs[c] = err
				return
			}
			defer ref.Close()
			ta := newTonicApps(ref)
			for i := c; i < len(queries); i += clientCount {
				want, err := ta.run(queries[i])
				if err != nil {
					errs[c] = fmt.Errorf("reference %s query %d: %w", queries[i].kind, i, err)
					return
				}
				queries[i].want = want
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
