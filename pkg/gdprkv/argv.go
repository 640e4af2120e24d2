package gdprkv

import "sync"

// Pre-rendered command names for the hot scalar paths, so building an
// argument vector never re-converts a constant string per call.
var (
	cmdGET    = []byte("GET")
	cmdSET    = []byte("SET")
	cmdEX     = []byte("EX")
	cmdDEL    = []byte("DEL")
	cmdTTL    = []byte("TTL")
	cmdEXPIRE = []byte("EXPIRE")
	cmdGPUT   = []byte("GPUT")
	cmdGGET   = []byte("GGET")
	cmdGDEL   = []byte("GDEL")

	// askingCmd is the whole one-shot ASKING an ASK hop writes first.
	askingCmd = [][]byte{[]byte("ASKING")}
)

// argvBox is a reusable [][]byte argument vector. The hot scalar commands
// (Get/Set/GGet/GPut/...) check one out, build their command in place,
// run the call, and return it — the per-call slice-header allocation
// conn.do used to force is gone. Safe because the write path consumes the
// arguments before the routed call returns; nothing retains them.
type argvBox struct{ a [][]byte }

var argvPool = sync.Pool{
	New: func() any { return &argvBox{a: make([][]byte, 0, 12)} },
}

func argvGet() *argvBox { return argvPool.Get().(*argvBox) }

func argvPut(b *argvBox) {
	// Drop the element references so a pooled vector cannot pin caller
	// payloads (values can be large) past the call that used them.
	for i := range b.a {
		b.a[i] = nil
	}
	b.a = b.a[:0]
	argvPool.Put(b)
}
