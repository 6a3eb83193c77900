package network

import (
	"encoding/binary"
	"fmt"
	"unsafe"
)

// The framing of a KindBatch payload, requests and replies alike: a run of
// items, each a uvarint length and then one message's AppendMessage
// encoding (DESIGN.md §9).

// AppendBatchItem appends m to the batch payload dst as one item and returns
// the extended slice.
func AppendBatchItem(dst []byte, m Message) []byte {
	at := len(dst)
	dst = AppendMessage(dst, m)
	var pre [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(pre[:], uint64(len(dst)-at))
	dst = append(dst, pre[:n]...)
	copy(dst[at+n:], dst[at:len(dst)-n]) // the message moves up past its length
	copy(dst[at:], pre[:n])
	return dst
}

// EachRequest decodes the requests of a batch payload in order, all into one
// pooled decoder, and calls fn with each until fn returns false. A request
// is valid only until fn returns. A payload that does not parse returns
// ErrBadWire, once fn has seen the requests in front of the fault.
func EachRequest(payload []byte, fn func(Message) bool) error {
	return eachItem(payload, false, fn)
}

// EachReply is EachRequest for the payload of a batch's answer, which its
// caller owns: a reply's strings share payload's bytes, and the caller may
// keep them as long as it leaves payload unchanged. They are neither interned
// — values seldom repeat, and would churn a decoder's intern table — nor
// copied: the response's decode has copied them once already. A reply's
// Payload, Keys, Vals and Founds arrays are valid only until fn returns.
func EachReply(payload []byte, fn func(Message) bool) error {
	return eachItem(payload, true, fn)
}

// eachItem walks a batch payload, decoding into one pooled decoder; with
// view, strings share the payload's bytes rather than the decoder's intern
// table. Every item takes at least two bytes, its length and its kind, so a
// payload holds at most half as many items as it has bytes.
func eachItem(payload []byte, view bool, fn func(Message) bool) error {
	d := decoderPool.Get().(*decoder)
	defer func() {
		d.view = ""
		decoderPool.Put(d)
	}()
	var src string // payload's bytes, for view
	if view && len(payload) > 0 {
		src = unsafe.String(&payload[0], len(payload))
	}
	r := wireReader{buf: payload}
	for len(r.buf) > 0 {
		n, err := r.uvarint()
		if err != nil {
			return err
		}
		if n > uint64(len(r.buf)) {
			return fmt.Errorf("%w: short batch item", ErrBadWire)
		}
		item := wireReader{buf: r.buf[:n], d: d}
		if src != "" {
			at := len(payload) - len(r.buf)
			d.view = src[at : at+int(n)]
		}
		r.buf = r.buf[n:]
		m, err := item.readMessage()
		if err != nil {
			return err
		}
		if len(item.buf) != 0 {
			return fmt.Errorf("%w: %d trailing bytes in a batch item", ErrBadWire, len(item.buf))
		}
		if !fn(m) {
			return nil
		}
	}
	return nil
}
