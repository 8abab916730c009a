// The runner half of the execution-policy seam: batch formation, split
// out of the execution loops so a policy family (or an experiment) can
// swap it without touching the engine. The default reproduces the
// paper's §5.2 dynamic workload adjustment. Admission of a formed batch
// is FIFO: the longest prefix that fits in KV memory is admitted and
// the tail is deferred.
package runner

import "exegpt/internal/workload"

// Queue is the admission-side view of the request FIFO that a
// BatchFormation policy draws from. Peek returns up to n queued
// requests without consuming them; Advance consumes from the front.
// Peek's slice is the queue's own storage (under Engine.Run, the
// caller's request stream): read it, never write to it.
type Queue interface {
	Len() int
	Peek(n int) []workload.Request
	Advance(n int)
}

// BatchFormation forms the next encode batch from the pending queue.
// want is the scheduled encoder batch size BE, meanIn the mean input
// length observed so far, activeNow the live decoder batch, and
// targetBD the scheduled decoder batch size. The batch is the front of
// the queue: Take returns a prefix of what Peek returned and advances
// past it, so the engine can find the batch's arrival times and rewind
// an unadmitted tail.
type BatchFormation interface {
	Take(q Queue, want int, meanIn float64, activeNow, targetBD int) []workload.Request
}

// formation returns the engine's batch-formation policy.
func (e *Engine) formation() BatchFormation {
	if e.Formation != nil {
		return e.Formation
	}
	return adaptiveFormation{}
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

// admitBatch reserves KV memory on states for the longest prefix of
// batch that fits, in order (FIFO, no preemption, no reordering). It
// returns that prefix, its summed input tokens, and the number of tail
// entries the caller must defer (rewind to its queue or hold for the
// next merge). Decoder-only models (self-attention over the prompt) and
// encoder-decoder models (cross-attention memoization) alike cache one
// entry per input token.
func admitBatch(states []*stageState, batch []workload.Request) (admitted []workload.Request, tokens, deferred int) {
	for i, r := range batch {
		if admit(states, r.ID, r.InLen) != nil {
			return batch[:i], tokens, len(batch) - i
		}
		tokens += r.InLen
	}
	return batch, tokens, 0
}
