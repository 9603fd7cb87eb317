package server

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strings"
	"testing"
)

// mustEncodeBody is encodeBody for values that always encode.
func mustEncodeBody(v any) []byte {
	body, err := encodeBody(v)
	if err != nil {
		panic(err)
	}
	return body
}

// failEncoding makes response values of type T fail to encode until the
// test ends.
func failEncoding[T any](t *testing.T) {
	t.Helper()
	orig := marshalBody
	marshalBody = func(v any) ([]byte, error) {
		if _, ok := v.(T); ok {
			return nil, errors.New("forced encoding failure")
		}
		return orig(v)
	}
	t.Cleanup(func() { marshalBody = orig })
}

// wantEncodeError checks a response is the canonical 500 ErrorResponse
// of an encoding failure.
func wantEncodeError(t *testing.T, rec respRec) {
	t.Helper()
	if rec.status != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", rec.status, rec.body)
	}
	var er ErrorResponse
	if err := json.Unmarshal([]byte(rec.body), &er); err != nil || !strings.Contains(er.Error, "encode response") {
		t.Fatalf("body %q is not an encoding ErrorResponse (%v)", rec.body, err)
	}
}

// TestJSONResultEncodeFailure covers a value JSON cannot represent: the
// handler answers 500 with an ErrorResponse instead of panicking.
func TestJSONResultEncodeFailure(t *testing.T) {
	res := jsonResult(http.StatusOK, map[string]float64{"score": math.NaN()})
	wantEncodeError(t, respRec{status: res.status, body: string(res.body)})
}

// TestEncodeFailureNotJournaled forces response encoding to fail on a
// store-backed daemon: the what-if and the finished plan answer 500, and
// neither body is memoized, kept as the plan's final answer, or
// journaled. Once encoding works again the same requests succeed and are
// memoized and journaled as usual.
func TestEncodeFailureNotJournaled(t *testing.T) {
	s, ts := durableServer(t, t.TempDir())
	// Build and journal the base first, so the failing requests are the
	// only candidates for new records.
	if wi := postWhatIf(t, ts.Client(), ts.URL, `{"scenario":"fig10","seed":1,"no_memo":true}`); wi.status != http.StatusOK {
		t.Fatalf("warm-up whatif status %d: %s", wi.status, wi.body)
	}
	appends, _, _, _ := s.persist.stats()

	failEncoding[*WhatIfResponse](t)
	wantEncodeError(t, postWhatIf(t, ts.Client(), ts.URL, recWhatIfBody))
	if _, _, size := s.memo.stats(); size != 0 {
		t.Errorf("failed what-if left %d memo entries", size)
	}
	if got, _, _, _ := s.persist.stats(); got != appends {
		t.Errorf("failed what-if journaled %d records", got-appends)
	}

	failEncoding[*PlanResponse](t)
	wantEncodeError(t, postPlan(t, ts.Client(), ts.URL, recPlanBody))
	for id, pe := range s.plans.plans {
		if pe.final != nil {
			t.Errorf("plan %s kept a final body after its encoding failed", id)
		}
	}
	s.persist.mu.Lock()
	for id, pm := range s.persist.plans {
		if pm.final != nil {
			t.Errorf("plan %s journaled a final body after its encoding failed", id)
		}
	}
	s.persist.mu.Unlock()

	marshalBody = json.Marshal
	if wi := postWhatIf(t, ts.Client(), ts.URL, recWhatIfBody); wi.status != http.StatusOK {
		t.Fatalf("whatif after recovery: status %d: %s", wi.status, wi.body)
	}
	if _, _, size := s.memo.stats(); size != 1 {
		t.Errorf("recovered what-if left %d memo entries, want 1", size)
	}
	if plan := decodePlan(t, postPlan(t, ts.Client(), ts.URL, recPlanBody)); !plan.Done {
		t.Fatalf("plan after recovery did not finish")
	}
	s.persist.mu.Lock()
	finals := 0
	for _, pm := range s.persist.plans {
		if pm.final != nil {
			finals++
		}
	}
	s.persist.mu.Unlock()
	if finals != 1 {
		t.Errorf("recovered plan journaled %d final bodies, want 1", finals)
	}
}
