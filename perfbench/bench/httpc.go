package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"
)

// EncodeRequest renders a complete HTTP/1.1 request, headers and body,
// so the timed loop only writes bytes prepared during set-up.
func EncodeRequest(method, path string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\nHost: geomapd\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
		method, path, len(body))
	b.Write(body)
	return b.Bytes()
}

// EncodeJSON marshals v as a request to path.
func EncodeJSON(method, path string, v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return EncodeRequest(method, path, body), nil
}

// Conn is one keep-alive client connection to the daemon. It is not safe
// for concurrent use; each load-generator worker owns one.
type Conn struct {
	c   net.Conn
	br  *bufio.Reader
	buf bytes.Buffer
}

// Dial opens a connection to addr.
func Dial(addr string) (*Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Conn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

// Close closes the connection.
func (c *Conn) Close() error { return c.c.Close() }

// requestTimeout bounds one request, so a stalled daemon fails the run
// instead of hanging it.
const requestTimeout = 60 * time.Second

// Do writes one pre-encoded request and reads the response. The returned
// body aliases a buffer the next Do overwrites.
func (c *Conn) Do(req []byte) (int, []byte, error) {
	if err := c.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return 0, nil, err
	}
	if _, err := c.c.Write(req); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// Get fetches path and decodes its JSON body into v.
func (c *Conn) Get(path string, v any) error {
	status, body, err := c.Do(EncodeRequest("GET", path, nil))
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, body)
	}
	return json.Unmarshal(body, v)
}
