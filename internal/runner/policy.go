// The runner half of the execution-policy seam: batch formation and
// victim/admission selection, split out of the execution drivers so a
// policy family (or an experiment) can swap either without touching the
// engine. The defaults reproduce the paper's behavior exactly: §5.2
// dynamic workload adjustment for formation, FIFO defer-the-tail for
// admission.
package runner

import "exegpt/internal/workload"

// Queue is the admission-side view of the request FIFO that a
// BatchFormation policy draws from. Peek returns up to n queued
// requests without consuming them; Advance consumes from the front;
// Rewind un-consumes (a deferred admission returns requests to the
// front in their original order).
type Queue interface {
	Len() int
	Peek(n int) []workload.Request
	Advance(n int)
	Rewind(n int)
}

// BatchFormation forms the next encode batch from the pending queue.
// want is the scheduled encoder batch size BE, meanIn the mean input
// length observed so far, activeNow the live decoder batch, and
// targetBD the scheduled decoder batch size.
type BatchFormation interface {
	Take(q Queue, want int, meanIn float64, activeNow, targetBD int) []workload.Request
}

// VictimSelector decides the admission order of a formed batch and
// which requests yield (become victims) when KV admission fails.
type VictimSelector interface {
	// Admit tries requests from batch in policy order via tryAdmit,
	// which reserves KV for one request or reports failure. It returns
	// the admitted requests in admission order and the number of batch
	// entries the caller must defer (rewind to its queue or hold for
	// the next merge).
	Admit(batch []workload.Request, tryAdmit func(workload.Request) error) (admitted []workload.Request, deferred int)
}

// formation returns the engine's batch-formation policy.
func (e *Engine) formation() BatchFormation {
	if e.Formation != nil {
		return e.Formation
	}
	return adaptiveFormation{}
}

// victims returns the engine's victim-selection policy.
func (e *Engine) victims() VictimSelector {
	if e.Victims != nil {
		return e.Victims
	}
	return deferTail{}
}

// adaptiveFormation is the default formation policy: dynamic workload
// adjustment (§5.2). The number taken starts from want and is adjusted
// so that (a) the summed input length stays within theta of the average
// workload and (b) the decoder batch is pulled back toward targetBD.
type adaptiveFormation struct{}

func (adaptiveFormation) Take(q Queue, want int, meanIn float64, activeNow, targetBD int) []workload.Request {
	if want < 1 {
		want = 1
	}
	take := want
	// Decoder under/over target: top up or back off (§5.2).
	deficit := targetBD - activeNow
	if deficit > 0 {
		take = max(take, min(deficit, take*2))
	} else if float64(activeNow) > float64(targetBD)*(1+theta) {
		take = max(1, take/2)
	}
	batch := q.Peek(take)
	if len(batch) > 1 {
		// Trim so the encoder token workload stays within the threshold.
		budget := float64(want) * meanIn * (1 + theta)
		tokens := 0
		cut := len(batch)
		for i, r := range batch {
			if float64(tokens+r.InLen) > budget && i > 0 {
				cut = i
				break
			}
			tokens += r.InLen
		}
		batch = batch[:cut]
	}
	q.Advance(len(batch))
	return batch
}

// deferTail is the default victim selector: admit the longest prefix
// that fits in order; the entire unadmitted tail yields. FIFO, no
// preemption, no reordering — an SLO-aware selector would reorder here.
type deferTail struct{}

func (deferTail) Admit(batch []workload.Request, tryAdmit func(workload.Request) error) ([]workload.Request, int) {
	for i, r := range batch {
		if err := tryAdmit(r); err != nil {
			return batch[:i], len(batch) - i
		}
	}
	return batch, 0
}

// admitBatch admits batch onto states through the engine's victim
// selector, returning the admitted prefix, its summed input tokens, and
// the deferred count the caller must rewind or hold.
func (e *Engine) admitBatch(states []*stageState, batch []workload.Request) (admitted []workload.Request, tokens, deferred int) {
	admitted, deferred = e.victims().Admit(batch, func(r workload.Request) error {
		return admit(states, r.ID, e.promptTokens(r))
	})
	for _, r := range admitted {
		tokens += r.InLen
	}
	return admitted, tokens, deferred
}
