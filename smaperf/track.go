package main

import (
	"bytes"
	"context"
	"fmt"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"sma/internal/core"
	"sma/internal/grid"
	"sma/internal/server"
	"sma/internal/synth"
)

// trackWorkload is track-semifluid: 1 client in a closed loop posting
// two-frame PGM uploads to POST /v1/track on a standalone in-memory
// smaserve at default settings (ScaledParams, binary answers).
type trackWorkload struct {
	cfg   config
	p     core.Params
	pairs []trackInput
	c     layerCounts
}

// trackInput is one upload of the pool and its reference answer.
type trackInput struct {
	pgm   [2][]byte
	body  []byte
	ctype string
	ref   []byte // SMF1 bytes of core.TrackSequential on the decoded frames
}

// trackPool is how many distinct pairs the clients cycle through.
const trackPool = 8

func newTrackWorkload(cfg config) workload {
	return &trackWorkload{cfg: cfg, p: core.ScaledParams()}
}

func (w *trackWorkload) name() string         { return "track-semifluid" }
func (w *trackWorkload) params() core.Params  { return w.p }
func (w *trackWorkload) clients() int         { return 1 }
func (w *trackWorkload) parallelism() int     { return 1 }
func (w *trackWorkload) counts() *layerCounts { return &w.c }

func (w *trackWorkload) handlerStages() []string {
	return []string{"server.decode", "core.prepare", "core.semimap", "core.search", "server.encode"}
}

func (w *trackWorkload) render(ctx context.Context) error {
	n := w.cfg.pool
	if n <= 0 {
		n = trackPool
	}
	scene := synth.Hurricane(w.cfg.size, w.cfg.size, w.cfg.seed)
	w.pairs = make([]trackInput, n)
	return parallel(ctx, n, func(i int) error {
		in := &w.pairs[i]
		var mp bytes.Buffer
		mw := multipart.NewWriter(&mp)
		for f, field := range []string{"i0", "i1"} {
			var pgm bytes.Buffer
			if err := scene.Frame(float64(i + f)).WritePGM(&pgm); err != nil {
				return err
			}
			in.pgm[f] = pgm.Bytes()
			fw, err := mw.CreateFormFile(field, field+".pgm")
			if err != nil {
				return err
			}
			if _, err := fw.Write(pgm.Bytes()); err != nil {
				return err
			}
		}
		if err := mw.WriteField("format", "binary"); err != nil {
			return err
		}
		if err := mw.Close(); err != nil {
			return err
		}
		in.body, in.ctype = mp.Bytes(), mw.FormDataContentType()
		// The server sees the 8-bit frames, so the reference does too.
		g0, err := server.DecodeImage(in.pgm[0])
		if err != nil {
			return err
		}
		g1, err := server.DecodeImage(in.pgm[1])
		if err != nil {
			return err
		}
		res, err := core.TrackSequential(core.Monocular(g0, g1), w.p, core.Options{})
		if err != nil {
			return err
		}
		in.ref, err = encodeField(res)
		return err
	})
}

func (w *trackWorkload) setup(ctx context.Context, dataDir string, tr *atomic.Pointer[Tracer]) (*system, error) {
	srv := server.New(server.Config{Logf: quietLog})
	ts := httptest.NewServer(&tracedHandler{name: "server.handler", h: srv.Handler(), tr: tr})
	client := newClient()
	return &system{base: ts.URL, client: client, close: func() error {
		client.CloseIdleConnections()
		ts.Close()
		sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 30*time.Second)
		defer cancel()
		return srv.Shutdown(sctx)
	}}, nil
}

func (w *trackWorkload) op(ctx context.Context, sys *system, k int, ot opTrace) opOutcome {
	in := &w.pairs[k%len(w.pairs)]
	code, body, retries, err := sys.callRetry(ctx, ot, http.MethodPost, "/v1/track", in.ctype, in.body)
	o := opOutcome{retries: retries}
	switch {
	case err != nil:
		o.err = err
	case code != http.StatusOK:
		o.err = httpErr("POST /v1/track", code, body)
	case !bytes.Equal(body, in.ref):
		o.mismatch = fmt.Errorf("%w: track pair %d: %d response bytes differ from the %d-byte reference", errMismatch, k%len(w.pairs), len(body), len(in.ref))
	default:
		o.pairs = 1
	}
	return o
}

// direct runs the stages the track handler runs, in its order: decode
// both uploads, prepare, build the semi-fluid map, search, encode.
func (w *trackWorkload) direct(ctx context.Context, k int, ot opTrace, _ *sinks) opOutcome {
	in := &w.pairs[k%len(w.pairs)]
	var g [2]*grid.Grid
	for f := range g {
		if err := ot.timed("server.decode", func() (err error) {
			g[f], err = server.DecodeImage(in.pgm[f])
			return err
		}); err != nil {
			return opOutcome{err: err}
		}
	}
	var prep *core.Prepared
	if err := ot.timed("core.prepare", func() (err error) {
		prep, err = core.Prepare(core.Monocular(g[0], g[1]), w.p)
		return err
	}); err != nil {
		return opOutcome{err: err}
	}
	var sm *core.SemiMap
	ot.timed("core.semimap", func() error {
		sm = core.BuildSemiMap(prep)
		return nil
	})
	w.c.addSemiMap(sm)
	var res *core.Result
	if err := ot.timed("core.search", func() (err error) {
		res, err = core.TrackPreparedParallelCtx(ctx, prep, sm, core.Options{}, serverRowWorkers)
		return err
	}); err != nil {
		return opOutcome{err: err}
	}
	px := int64(prep.W * prep.H)
	w.c.addSearch(px, px*int64(w.p.Hypotheses()), 0)
	var field []byte
	if err := ot.timed("server.encode", func() (err error) {
		field, err = encodeField(res)
		return err
	}); err != nil {
		return opOutcome{err: err}
	}
	if !bytes.Equal(field, in.ref) {
		return opOutcome{mismatch: fmt.Errorf("%w: direct track pair %d", errMismatch, k%len(w.pairs))}
	}
	return opOutcome{pairs: 1}
}
