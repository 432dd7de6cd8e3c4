package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"image"
	"image/png"
	"io"
	"net/http"
	"testing"

	"tdmagic/internal/core"
	"tdmagic/internal/diag"
	"tdmagic/internal/imgproc"
)

// countReader tallies the bytes pulled through it, so the size cap can be
// enforced on a stream without buffering it.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// readPNGStream is the reference upload reader: it decodes a PNG straight
// off r, which the caller limits to maxBytes+1. The 24-byte magic + IHDR
// prefix is peeked, the decoder then pulls the compressed stream
// directly, and the remainder is drained through a byte counter to
// enforce the size cap. readPicture plus upload.decode must agree with it
// on every input.
func readPNGStream(r io.Reader, maxBytes int64) (*imgproc.Gray, int, string) {
	cr := &countReader{r: r}
	br := bufio.NewReader(cr)
	head, err := br.Peek(24)
	if len(head) < 24 {
		if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) || err == nil {
			return nil, http.StatusBadRequest, "body is not a PNG"
		}
		return nil, http.StatusBadRequest, "read body: " + err.Error()
	}
	if [8]byte(head[:8]) != pngMagic {
		return nil, http.StatusBadRequest, "body is not a PNG"
	}
	width := int64(binary.BigEndian.Uint32(head[16:20]))
	height := int64(binary.BigEndian.Uint32(head[20:24]))
	if width <= 0 || height <= 0 || width*height > core.MaxPixels {
		return nil, http.StatusBadRequest,
			fmt.Sprintf("declared %dx%d raster exceeds the %d-pixel limit", width, height, core.MaxPixels)
	}
	img, err := imgproc.DecodePNG(br)
	_, _ = io.Copy(io.Discard, br)
	if cr.n > maxBytes {
		return nil, http.StatusBadRequest, fmt.Sprintf("body exceeds the %d-byte limit", maxBytes)
	}
	if err != nil {
		return nil, http.StatusBadRequest, "decode png: " + err.Error()
	}
	return img, 0, ""
}

var errCut = errors.New("connection reset")

// FuzzReadPicture checks the buffered upload reader against the
// streaming reference: for any bytes, any body cap in (0, 4 MiB] and an
// optional transport error after cut bytes, both give the same refusal
// message, or the same pixels.
func FuzzReadPicture(f *testing.F) {
	img := image.NewGray(image.Rect(0, 0, 24, 16))
	for i := range img.Pix {
		img.Pix[i] = uint8(i * 7)
	}
	var buf bytes.Buffer
	if err := png.Encode(&buf, img); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid, uint32(1<<20), uint16(0))
	f.Add(valid[:len(valid)/2], uint32(1<<20), uint16(0))
	f.Add([]byte("not a png at all"), uint32(1<<20), uint16(0))
	f.Add(valid, uint32(len(valid)-2), uint16(0))
	f.Add(fakePNG(1<<15, 1<<15), uint32(1<<20), uint16(0))
	f.Add(valid, uint32(1<<20), uint16(len(valid)/2))
	f.Add(valid, uint32(1<<20), uint16(len(valid)))
	f.Fuzz(func(t *testing.T, b []byte, capSeed uint32, cut uint16) {
		maxBytes := int64(capSeed%(4<<20)) + 1
		open := func() io.Reader {
			var r io.Reader = bytes.NewReader(b)
			if cut > 0 && int(cut) <= len(b) {
				r = io.MultiReader(bytes.NewReader(b[:cut]), failReader{errCut})
			}
			return io.LimitReader(r, maxBytes+1)
		}
		want, status, wantMsg := readPNGStream(open(), maxBytes)
		if wantMsg != "" && status != http.StatusBadRequest {
			t.Fatalf("reference refused with %d", status)
		}
		s := &Server{cfg: Config{MaxBodyBytes: maxBytes}}
		u, msg := s.readPicture(open())
		var got *imgproc.Gray
		if msg == "" {
			got, msg = u.decode()
		}
		if msg != wantMsg {
			t.Fatalf("refusal %q, reference %q", msg, wantMsg)
		}
		if (got == nil) != (want == nil) ||
			got != nil && (got.W != want.W || got.H != want.H || !bytes.Equal(got.Pix, want.Pix)) {
			t.Fatal("decoded pixels differ from the reference")
		}
	})
}

// TestUploadRefusalsPerSurface pins each upload surface's refusal of a
// picture the reader turns away: the reference reader's message, with
// input-stage diagnostics and a bad-request count on /v1/translate,
// without diagnostics on /v1/verify's image part, and as a per-item entry
// that leaves the bad-request count alone on /v1/translate/batch.
func TestUploadRefusalsPerSurface(t *testing.T) {
	const maxBytes = 1 << 20
	s, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: maxBytes})
	oversized := make([]byte, maxBytes+1)
	copy(oversized, fakePNG(64, 64))
	encode := func(v any) string {
		var buf bytes.Buffer
		_ = json.NewEncoder(&buf).Encode(v)
		return buf.String()
	}
	for _, c := range []struct {
		name string
		body []byte
	}{
		{"empty", nil},
		{"garbage", []byte("not a png at all")},
		{"truncated", fakePNG(100, 100)},
		{"pixel-bomb", fakePNG(1<<15, 1<<15)},
		{"oversized", oversized},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, _, msg := readPNGStream(io.LimitReader(bytes.NewReader(c.body), maxBytes+1), maxBytes)
			if msg == "" {
				t.Fatal("the reference reader accepts the upload")
			}
			inputDiags := []diag.Diagnostic{diag.New(diag.StageInput, diag.Error, "%s", msg)}
			post := func(path, ctype string, body io.Reader) (int, string) {
				t.Helper()
				resp, err := http.Post(ts.URL+path, ctype, body)
				if err != nil {
					t.Fatal(err)
				}
				return resp.StatusCode, string(readBody(t, resp))
			}
			// A reader without a length streams, as a chunked upload does,
			// so the reader's own cap answers, not the Content-Length check.
			bad := s.badRequests.Value()
			status, body := post("/v1/translate", "image/png", io.MultiReader(bytes.NewReader(c.body)))
			if want := encode(ErrorResponse{Error: msg, Diags: inputDiags}); status != http.StatusBadRequest || body != want {
				t.Errorf("translate: %d %s, want 400 %s", status, body, want)
			}
			vbody, vtype := verifyBody(t, []vpart{{"image", c.body}})
			status, body = post("/v1/verify", vtype, vbody)
			if want := encode(ErrorResponse{Error: msg}); status != http.StatusBadRequest || body != want {
				t.Errorf("verify: %d %s, want 400 %s", status, body, want)
			}
			if got := s.badRequests.Value() - bad; got != 2 {
				t.Errorf("bad requests +%d after translate and verify, want +2", got)
			}
			bbody, btype := multipartJob(t, []string{"p.png"}, [][]byte{c.body})
			status, body = post("/v1/translate/batch", btype, bbody)
			want := encode(struct {
				Results []ItemResult `json:"results"`
			}{[]ItemResult{{Name: "p.png", Status: http.StatusBadRequest, Error: msg, Diags: inputDiags}}})
			if status != http.StatusOK || body != want {
				t.Errorf("batch: %d %s, want 200 %s", status, body, want)
			}
			if got := s.badRequests.Value() - bad; got != 2 {
				t.Errorf("a refused batch part moved bad requests to +%d", got)
			}
		})
	}
}
