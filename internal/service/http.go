// The HTTP+JSON surface of bracesimd. Routing is by hand: the module pins
// go 1.21, where the enhanced ServeMux patterns (methods, wildcards) are
// disabled, and the API is small enough that a prefix switch stays honest.
//
//	POST   /v1/runs            submit a RunSpec (≤ 1 MiB)  -> 202 RunStatus
//	GET    /v1/runs            list runs                   -> 200 []RunStatus
//	GET    /v1/runs/{id}       one run's status            -> 200 RunStatus
//	DELETE /v1/runs/{id}       cancel a run                -> 200 RunStatus
//	GET    /v1/runs/{id}/watch observation stream          -> 200 ndjson ObsFrame
//	GET    /v1/fleet           fleet worker states         -> 200 []WorkerInfo
//
// The watch endpoint streams newline-delimited JSON ObsFrames: first the
// backlog (latest keyframe onward), then live frames as the run publishes
// them, flushed per frame. The connection closes when the run finishes or
// the subscriber falls too far behind (the final frame is then followed by
// EOF; a dropped subscriber can reconnect and resync from the keyframe).
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Handler serves the service API for a manager.
func Handler(m *Manager) http.Handler {
	return &apiHandler{m: m}
}

type apiHandler struct {
	m *Manager
}

type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrShuttingDown):
		code = http.StatusServiceUnavailable
	default:
		// Spec validation problems are the client's fault.
		code = http.StatusBadRequest
	}
	writeJSON(w, code, apiError{Error: err.Error()})
}

func (h *apiHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	switch {
	case path == "/v1/runs" || path == "/v1/runs/":
		switch r.Method {
		case http.MethodPost:
			h.submit(w, r)
		case http.MethodGet:
			writeJSON(w, http.StatusOK, h.m.List())
		default:
			w.Header().Set("Allow", "GET, POST")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	case strings.HasPrefix(path, "/v1/runs/"):
		rest := strings.TrimPrefix(path, "/v1/runs/")
		if id := strings.TrimSuffix(rest, "/watch"); id != rest && !strings.Contains(id, "/") {
			if r.Method != http.MethodGet {
				w.Header().Set("Allow", "GET")
				http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
				return
			}
			h.watch(w, r, id)
			return
		}
		if strings.Contains(rest, "/") {
			http.NotFound(w, r)
			return
		}
		switch r.Method {
		case http.MethodGet:
			st, err := h.m.Get(rest)
			if err != nil {
				writeErr(w, err)
				return
			}
			writeJSON(w, http.StatusOK, st)
		case http.MethodDelete:
			st, err := h.m.Cancel(rest)
			if err != nil {
				writeErr(w, err)
				return
			}
			writeJSON(w, http.StatusOK, st)
		default:
			w.Header().Set("Allow", "GET, DELETE")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	case path == "/v1/fleet":
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", "GET")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		writeJSON(w, http.StatusOK, h.m.Fleet())
	default:
		http.NotFound(w, r)
	}
}

// maxSpecBytes bounds a submitted run spec. A RunSpec is a handful of
// knobs; the limit only stops a client from making the daemon read forever.
const maxSpecBytes = 1 << 20

func (h *apiHandler) submit(w http.ResponseWriter, r *http.Request) {
	var spec RunSpec
	err := decodeOnly(http.MaxBytesReader(w, r.Body, maxSpecBytes), &spec)
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		writeJSON(w, http.StatusRequestEntityTooLarge,
			apiError{Error: fmt.Sprintf("run spec larger than %d bytes", tooBig.Limit)})
		return
	case err != nil:
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad run spec: " + err.Error()})
		return
	}
	st, err := h.m.Submit(spec)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

// decodeOnly decodes r as exactly one JSON value of known fields: anything
// but EOF after the value means the sender said more than was understood.
func decodeOnly(r io.Reader, v interface{}) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	switch _, err := dec.Token(); err {
	case io.EOF:
		return nil
	case nil:
		return errors.New("data after the JSON value")
	default:
		return err
	}
}

// watch streams a run's observation frames as ndjson until the run ends,
// the subscriber falls behind, or the client disconnects.
func (h *apiHandler) watch(w http.ResponseWriter, r *http.Request, id string) {
	sub, err := h.m.Watch(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	defer sub.Cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	send := func(f *ObsFrame) bool {
		if err := enc.Encode(f); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	for _, f := range sub.Backlog {
		if !send(f) {
			return
		}
	}
	ctx := r.Context()
	for {
		select {
		case f, ok := <-sub.Live:
			if !ok {
				return // run finished or subscriber dropped for lagging
			}
			if !send(f) {
				return
			}
		case <-ctx.Done():
			return
		}
	}
}
