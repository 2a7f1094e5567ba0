// Package djinn is the public API of this reproduction of "DjiNN and
// Tonic: DNN as a Service and Its Implications for Future Warehouse
// Scale Computers" (ISCA 2015).
//
// It exposes three layers:
//
//   - The DjiNN service: a TCP DNN-inference server hosting the seven
//     Tonic Suite models with cross-request batching and shared
//     read-only weights (NewServer, Dial).
//
//   - The Tonic Suite applications: end-to-end image classification,
//     digit recognition, facial recognition, speech recognition and
//     NLP tagging pipelines over a DjiNN backend (NewIMC … NewNER).
//
//   - The evaluation platform: calibrated CPU/GPU/WSC performance
//     models that regenerate every table and figure of the paper
//     (NewPlatform, the Fig*/Table* methods).
//
// See README.md for a quickstart and DESIGN.md for the system map.
package djinn

import (
	"context"
	"io"
	"net/http"

	"djinn/internal/admin"
	"djinn/internal/experiments"
	"djinn/internal/gateway"
	"djinn/internal/metrics"
	"djinn/internal/models"
	"djinn/internal/modelstore"
	"djinn/internal/nn"
	"djinn/internal/pipeline"
	"djinn/internal/router"
	"djinn/internal/sched"
	"djinn/internal/service"
	"djinn/internal/tonic"
	"djinn/internal/trace"
)

// App identifies one of the seven Tonic Suite applications.
type App = models.App

// The Tonic Suite applications, in Table 1 order.
const (
	IMC  = models.IMC
	DIG  = models.DIG
	FACE = models.FACE
	ASR  = models.ASR
	POS  = models.POS
	CHK  = models.CHK
	NER  = models.NER
)

// Apps lists every application.
var Apps = models.Apps

// ParseApp converts "IMC", "ASR", ... to an App.
func ParseApp(s string) (App, error) { return models.ParseApp(s) }

// Server is the DjiNN service (model registry + TCP front end +
// batching worker pools).
type Server = service.Server

// AppConfig tunes one registered application's batching and workers.
// Setting its SLO enables the scheduler: SLO-aware admission control
// and adaptive batching within [1, BatchInstances] (see internal/sched
// and the README's Scheduling section).
type AppConfig = service.AppConfig

// Priority is an application's tenant class at the server's cross-app
// execution gate (Server.SetSchedSlots).
type Priority = sched.Priority

// The scheduler's priority classes, in ascending weight (1/2/4) at the
// execution gate.
const (
	Throughput      = sched.Throughput
	Standard        = sched.Standard
	LatencyCritical = sched.LatencyCritical
)

// SchedInfo is a point-in-time snapshot of one app's scheduler (live
// batch cap, admission estimate and counters); see Server.SchedFor
// and Client.ServerSched.
type SchedInfo = sched.Info

// Precision selects the kernel backend an application's execution plans
// compile against (AppConfig.Precision, nn.CompileOpts.Precision).
type Precision = nn.Precision

// The kernel precisions: the reference float32 path and the quantized
// int8 path (dynamic activation scales, int32 accumulation, ~99%+ top-1
// agreement with float32).
const (
	Float32 = nn.Float32
	Int8    = nn.Int8
)

// ParsePrecision converts "float32"/"fp32"/"f32" (or "") and
// "int8"/"quant" to a Precision; any other name, "float32-packed"
// included, is an error.
func ParsePrecision(s string) (Precision, error) { return nn.ParsePrecision(s) }

// Client is a TCP client for a remote DjiNN server.
type Client = service.Client

// Backend is anything that answers DjiNN inference queries: a *Client
// (remote) or a *Server (in-process).
type Backend = service.Backend

// ContextBackend is a Backend that additionally accepts a
// context.Context per query (InferCtx), letting callers attach
// deadlines and cancellation. Both *Client and *Server implement it.
type ContextBackend = service.ContextBackend

// Stats are one application's lifecycle counters (queries, batches,
// shed, expired, errors).
type Stats = service.Stats

// StageSummary is the per-stage latency breakdown a server records for
// each query: queue wait, batch assembly, forward pass, respond.
type StageSummary = metrics.StageSummary

// Sentinel errors for the request lifecycle. Match with errors.Is:
// they survive the wire, so a remote Client returns the same values an
// in-process Server does.
var (
	// ErrDeadlineExceeded: the query's deadline expired before the
	// forward pass ran (or the caller's context was cancelled).
	ErrDeadlineExceeded = service.ErrDeadlineExceeded
	// ErrShuttingDown: the server is draining; the query was rejected.
	ErrShuttingDown = service.ErrShuttingDown
	// ErrOverloaded: the query was shed before entering the queue —
	// the application's queue was full, or its admission controller
	// estimated the deadline could not be met. Retryable on another
	// replica; the Router treats it as backpressure.
	ErrOverloaded = service.ErrOverloaded
	// ErrTransport: the connection to a server failed mid-exchange (or
	// could not be established). Retryable on another replica.
	ErrTransport = service.ErrTransport
)

// NewServer creates an empty DjiNN server; register applications with
// RegisterApp or RegisterAll before serving.
func NewServer() *Server { return service.NewServer() }

// Dial connects to a DjiNN server.
func Dial(addr string) (*Client, error) { return service.Dial(addr) }

// DefaultDial is the TCP dialer Dial uses; pass it (or a custom
// DialFunc) to a Router's AddAddr.
var DefaultDial = service.DefaultDial

// Router is the client-side multi-backend dispatch tier: it fans
// queries across replica backends with per-replica health tracking,
// probe-based recovery, and deadline-aware retry. It implements
// ContextBackend, so every Tonic application runs over a fleet
// unchanged.
type Router = router.Router

// RouterConfig tunes a Router's dispatch policy, retry budget, and
// health thresholds.
type RouterConfig = router.Config

// BackendSnapshot is one replica's health and counters in
// Router.Stats().
type BackendSnapshot = router.BackendSnapshot

// The Router's dispatch policies.
const (
	RoundRobin       = router.RoundRobin
	LeastOutstanding = router.LeastOutstanding
	PowerOfTwo       = router.PowerOfTwo
)

// NewRouter creates a Router; add replicas with AddBackend (in-process
// or pre-dialed backends) or AddAddr (TCP, with pooled connections).
func NewRouter(cfg RouterConfig) *Router { return router.New(cfg) }

// RegisterApp loads one application's model into a server with the
// paper's Table 3 batching configuration.
func RegisterApp(s *Server, app App) error { return tonic.Register(s, app) }

// RegisterAppPrecision is RegisterApp with an explicit kernel
// precision: the app's whole plan pool compiles against the selected
// backend.
func RegisterAppPrecision(s *Server, app App, prec Precision) error {
	return tonic.RegisterPrecision(s, app, prec)
}

// RegisterAll loads all seven Tonic models (~850 MB of weights).
func RegisterAll(s *Server) error { return tonic.RegisterAll(s) }

// ServiceName returns the registry name an application uses on the
// wire ("imc", "dig", ...).
func ServiceName(app App) string { return tonic.ServiceName(app) }

// RegisterFromDef loads a custom application from a network-definition
// file (see internal/nn's netdef format) and optional trained weights,
// registering it under name — the paper's extensibility story:
// "supporting more applications simply requires providing DjiNN a
// pretrained neural network model".
func RegisterFromDef(s *Server, name string, def io.Reader, weights io.Reader, cfg AppConfig) error {
	net, err := nn.ParseNetDef(def, 1)
	if err != nil {
		return err
	}
	if weights != nil {
		if err := net.LoadWeights(weights); err != nil {
			return err
		}
	}
	return s.Register(name, net, cfg)
}

// Tonic Suite applications. Each wraps a Backend with the app's real
// pre/post-processing.
type (
	// ImageClassifier is IMC: AlexNet over 1000 classes.
	ImageClassifier = tonic.IMC
	// DigitRecognizer is DIG: 100-image MNIST queries.
	DigitRecognizer = tonic.DIG
	// FaceIdentifier is FACE: DeepFace over 83 identities.
	FaceIdentifier = tonic.FACE
	// SpeechRecognizer is ASR: feature extraction, Kaldi-style acoustic
	// scoring, Viterbi decoding.
	SpeechRecognizer = tonic.ASR
	// POSTagger, Chunker and EntityRecognizer are the SENNA-based NLP
	// applications.
	POSTagger        = tonic.POS
	Chunker          = tonic.CHK
	EntityRecognizer = tonic.NER

	// Prediction is a classification result.
	Prediction = tonic.Prediction
	// TaggedWord is one word with its predicted tag.
	TaggedWord = tonic.TaggedWord
	// Transcription is a decoded utterance.
	Transcription = tonic.Transcription
)

// Application constructors.
func NewIMC(b Backend) *ImageClassifier  { return tonic.NewIMC(b) }
func NewDIG(b Backend) *DigitRecognizer  { return tonic.NewDIG(b) }
func NewFACE(b Backend) *FaceIdentifier  { return tonic.NewFACE(b) }
func NewASR(b Backend) *SpeechRecognizer { return tonic.NewASR(b) }
func NewPOS(b Backend) *POSTagger        { return tonic.NewPOS(b) }
func NewCHK(b Backend) *Chunker          { return tonic.NewCHK(b) }
func NewNER(b Backend) *EntityRecognizer { return tonic.NewNER(b) }

// Trace is one request's recorded span timeline as seen by one tier
// (or several tiers, after MergeTraces).
type Trace = trace.Trace

// TraceStore is a bounded in-memory span store; each tier of a process
// (the router, each server replica) owns one.
type TraceStore = trace.Store

// NewTraceID mints a request trace ID. Attach it to a query's context
// with WithTraceID and every hop (router attempt, queue, batch,
// forward, respond) records spans under it.
func NewTraceID() string { return trace.NewID() }

// WithTraceID attaches a trace ID to a query context; Client and Router
// lower it onto the wire so remote tiers annotate under the same ID.
func WithTraceID(ctx context.Context, id string) context.Context { return trace.WithID(ctx, id) }

// NewTraceStore creates a bounded trace store labelled with tier.
// capacity <= 0 means the default (1024 traces).
func NewTraceStore(tier string, capacity int) *TraceStore { return trace.NewStore(tier, capacity) }

// MergeTraces combines one request's spans across tiers (e.g. the
// router's store plus each replica's) into a single timeline whose span
// names are prefixed "tier/".
func MergeTraces(id string, stores ...*TraceStore) (Trace, bool) { return trace.Merge(id, stores...) }

// AdminOptions selects what a process's admin HTTP plane exports.
type AdminOptions = admin.Options

// AdminReplica pairs one in-process server with its exported name.
type AdminReplica = admin.Replica

// NewAdminHandler builds the admin HTTP handler: Prometheus text on
// /metrics, pprof under /debug/pprof/, the slow-query log on /slowlog,
// and merged per-request timelines on /trace?id=.
func NewAdminHandler(opts AdminOptions) http.Handler { return admin.NewHandler(opts) }

// ModelRegistry is the model store's lifecycle manager: it tracks
// registered weight files, loads (mmaps) them on demand under a
// configurable residency budget, pins models while queries are in
// flight, and LRU-evicts cold ones. Attach one to a Server with
// AttachModelStore and any registered model becomes servable by name.
type ModelRegistry = modelstore.Registry

// ModelRegistryConfig tunes a ModelRegistry (residency budget in
// bytes, warm-on-load).
type ModelRegistryConfig = modelstore.Config

// ModelID names one model version ("imc@v2"); a bare name resolves to
// the newest registered version.
type ModelID = modelstore.ID

// ModelInfo is one registered model's listing entry (residency, pins,
// bytes, parameter count).
type ModelInfo = modelstore.Info

// ModelStats are a registry's counters: residency gauges plus
// lifetime loads, first-query faults, evictions, and load errors —
// the djinn_model_* metrics family.
type ModelStats = modelstore.Stats

// NewModelRegistry creates an empty model registry.
func NewModelRegistry(cfg ModelRegistryConfig) *ModelRegistry { return modelstore.NewRegistry(cfg) }

// ParseModelID parses "name" or "name@vN".
func ParseModelID(s string) (ModelID, error) { return modelstore.ParseID(s) }

// ExportModels writes the given Tonic applications' networks to dir as
// versioned .djw weight files ("imc@v1.djw", ...) and returns the
// paths. The files round-trip bit-identically: a server loading them
// through a ModelRegistry answers exactly like one built from seeds.
func ExportModels(dir string, apps []App, version int) ([]string, error) {
	return modelstore.ExportTonic(dir, apps, version)
}

// ExportModelsQuantized is ExportModels emitting version-2 weight files
// whose conv/FC weights carry checksummed int8 quantized sections: a
// server opening them serves Int8 plans with quantization already paid
// at export time (stored and on-the-fly quantized weights are
// bit-identical).
func ExportModelsQuantized(dir string, apps []App, version int) ([]string, error) {
	return modelstore.ExportTonicOpts(dir, apps, version, modelstore.WriteOptions{Quantize: true})
}

// VerifyModelFile validates one .djw file end to end — header and
// per-section checksums, manifest/netdef agreement — without mapping
// it, and returns its metadata.
func VerifyModelFile(path string) (*modelstore.Meta, error) { return modelstore.VerifyFile(path) }

// SplitTarget is one arm of a Router traffic split (see
// Router.SetSplit): Weight parts of the base app's traffic go to
// Target, typically a versioned model ID like "imc@v2".
type SplitTarget = router.SplitTarget

// SplitStatus is one split arm plus its routed-query counter
// (Router.Splits).
type SplitStatus = router.SplitStatus

// Platform is the paper's evaluation platform (Table 2): the Xeon core
// baseline, the K40 GPU model and the host interconnect. Its Fig* and
// Render* methods regenerate the paper's evaluation.
type Platform = experiments.Platform

// NewPlatform returns the calibrated Table 2 platform.
func NewPlatform() Platform { return experiments.DefaultPlatform() }

// Gateway is the HTTP/JSON front-end tier: JSON requests in, DJRT
// queries out, with a content-addressed response cache, per-tenant
// rate limits, and server-side pipelines (see internal/gateway).
type Gateway = gateway.Gateway

// GatewayConfig configures a Gateway: the backend it fronts, the
// app table, cache and rate-limit policy, body caps, and tracing.
type GatewayConfig = gateway.Config

// GatewayCacheConfig sizes the gateway's content-addressed response
// cache (byte budget + TTL).
type GatewayCacheConfig = gateway.CacheConfig

// GatewayLimitConfig is the per-tenant token-bucket rate limit
// applied at gateway admission.
type GatewayLimitConfig = gateway.LimitConfig

// NewGateway builds a Gateway over a backend (a Server, Client, or
// Router).
func NewGateway(cfg GatewayConfig) (*Gateway, error) { return gateway.New(cfg) }

// PipelineSpec declares a server-side DAG of Tonic stages; run it
// with a PipelineRunner or POST it to a gateway's /v1/pipeline.
type PipelineSpec = pipeline.Spec

// PipelineStage is one node of a PipelineSpec: a named Tonic app plus
// the stages it waits on.
type PipelineStage = pipeline.StageSpec

// PipelineRunner executes pipeline specs over a backend, recording
// per-stage trace spans and stats.
type PipelineRunner = pipeline.Runner

// PipelinePreset returns a named built-in pipeline ("asr-pos-ner",
// "asr-chk").
func PipelinePreset(name string) (PipelineSpec, bool) { return pipeline.Preset(name) }

// NewPipelineRunner builds a runner over a context-aware backend;
// traces may be nil.
func NewPipelineRunner(b ContextBackend, traces *TraceStore) *PipelineRunner {
	return pipeline.NewRunner(b, traces)
}
