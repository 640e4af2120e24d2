package experiments

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"gdprstore/internal/acl"
	"gdprstore/internal/core"
	"gdprstore/pkg/gdprkv"
)

// The persona workloads are GDPR-centric, in the style of GDPRbench, the
// follow-up benchmark this paper spawned. Where YCSB measures a store's
// plain data path, these workloads measure the GDPR surface itself through
// four personas:
//
//   - customer (data subject): reads own data, exercises the rights of
//     access (Art. 15), portability (Art. 20), objection (Art. 21) and
//     erasure (Art. 17);
//   - controller: writes personal data with metadata, retunes retention,
//     queries by purpose;
//   - processor: reads personal data under a granted purpose;
//   - regulator: audits — breach reports and metadata inspection.
//
// One loop drives them against either target: an embedded compliant store
// (StorePersonas) or a live server or cluster through the SDK (NetPool).

// Role is a GDPRbench persona.
type Role string

// Personas.
const (
	RoleCustomer   Role = "customer"
	RoleController Role = "controller"
	RoleProcessor  Role = "processor"
	RoleRegulator  Role = "regulator"
)

// Roles lists all personas in benchmark order.
var Roles = []Role{RoleCustomer, RoleController, RoleProcessor, RoleRegulator}

// The GDPR operations measured, by report name.
const (
	OpReadOwn   = "READ-OWN"
	OpUpdateOwn = "UPDATE-OWN"
	OpAccess    = "GETUSER"
	OpPortab    = "EXPORT"
	OpObject    = "OBJECT"
	OpErase     = "FORGET"
	OpPut       = "PUT-META"
	OpRetune    = "UPDATE-TTL"
	OpPurposeQ  = "KEYS-BY-PURPOSE"
	OpProcRead  = "READ-PURPOSE"
	OpBreach    = "BREACH-REPORT"
	OpMetaRead  = "READ-META"
)

// recordSize is the payload size in bytes of the personas' and scenarios'
// records: GDPRbench uses small personal records.
const recordSize = 100

// weightedOp pairs an operation with its share of the mix.
type weightedOp struct {
	op string
	w  float64
}

// mixes defines each persona's operation mix. Shares follow GDPRbench's
// emphasis: personas mostly perform their primary operation with a tail of
// heavyweight rights operations.
var mixes = map[Role][]weightedOp{
	RoleCustomer: {
		{OpReadOwn, 0.60}, {OpUpdateOwn, 0.20}, {OpAccess, 0.10},
		{OpPortab, 0.05}, {OpObject, 0.04}, {OpErase, 0.01},
	},
	RoleController: {
		{OpPut, 0.60}, {OpRetune, 0.25}, {OpPurposeQ, 0.15},
	},
	RoleProcessor: {
		{OpProcRead, 1.00},
	},
	RoleRegulator: {
		{OpBreach, 0.20}, {OpMetaRead, 0.80},
	},
}

// PersonaConfig parameterises a persona run.
type PersonaConfig struct {
	// Role selects the persona.
	Role Role
	// Subjects is the number of data subjects in the population.
	Subjects int
	// RecordsPerSubject is how many keys each subject owns.
	RecordsPerSubject int
	// Operations is the number of operations drawn; draws that land on an
	// erased subject are redrawn a few times, then skipped.
	Operations int
	// Seed fixes the randomness (0 → 1).
	Seed int64
	// Purposes is the purpose vocabulary (default: billing, analytics,
	// marketing, support).
	Purposes []string
	// TTL is the retention bound written on records (default 24h).
	TTL time.Duration
	// Batch groups data-path operations (reads, writes) into batch calls
	// of this size, amortising the per-operation compliance overhead. 0 or
	// 1 keeps the one-key-at-a-time path; the per-op latency then covers
	// Batch keys per observation.
	Batch int
}

func (c *PersonaConfig) defaults() {
	if c.Batch < 1 {
		c.Batch = 1
	}
	c.Seed = cmp.Or(c.Seed, 1)
	if len(c.Purposes) == 0 {
		c.Purposes = []string{"billing", "analytics", "marketing", "support"}
	}
	c.TTL = cmp.Or(c.TTL, 24*time.Hour)
}

// SubjectName formats subject i's principal ID.
func SubjectName(i int) string { return fmt.Sprintf("subject%06d", i) }

// RecordKey formats subject i's j-th key. The owner is a cluster hash
// tag, so in cluster mode every record of one subject co-locates on the
// owner's slot — erasure and access stay node-local for the benchmark
// population (embedded mode ignores the braces).
func RecordKey(i, j int) string { return fmt.Sprintf("pd:{%s}:rec%04d", SubjectName(i), j) }

// PersonaTarget is where the personas run. A session is one principal
// with one declared purpose ("" for none).
type PersonaTarget interface {
	session(actor, purpose string) (personaSession, error)
}

// personaSession issues persona operations as one principal.
type personaSession interface {
	do(c *personaCall) error
}

// personaCall is one persona operation and its arguments.
type personaCall struct {
	op    string
	owner string
	keys  []string
	vals  [][]byte // one per key, for writes
	// purpose is the written records' purpose, or OBJECT's and
	// KEYS-BY-PURPOSE's argument.
	purpose string
	// ttl is the written records' retention, or UPDATE-TTL's new bound.
	ttl      time.Duration
	origin   string
	from, to time.Time // BREACH-REPORT's window
}

// StorePersonas runs the personas in-process against st: they call the
// compliance layer directly.
func StorePersonas(st *core.Store) PersonaTarget { return embeddedTarget{st: st} }

func (e embeddedTarget) session(actor, purpose string) (personaSession, error) {
	e.ctx = core.Ctx{Actor: actor, Purpose: purpose}
	return e, nil
}

func (e embeddedTarget) do(c *personaCall) error {
	switch c.op {
	case OpReadOwn, OpProcRead:
		return e.get(c.keys)
	case OpUpdateOwn, OpPut:
		e.opts = core.PutOptions{Owner: c.owner, Purposes: []string{c.purpose}, TTL: c.ttl, Origin: c.origin}
		return e.put(c.keys, c.vals)
	case OpAccess:
		_, err := e.st.Access(e.ctx, c.owner)
		return err
	case OpPortab:
		_, err := e.st.Export(e.ctx, c.owner)
		return err
	case OpObject:
		return e.st.Object(e.ctx, c.owner, c.purpose)
	case OpErase:
		_, err := e.st.Forget(e.ctx, c.owner)
		return err
	case OpRetune:
		return e.st.Expire(e.ctx, c.keys[0], c.ttl)
	case OpPurposeQ:
		_, err := e.st.KeysByPurpose(e.ctx, c.purpose)
		return err
	case OpBreach:
		_, err := e.st.Breach(e.ctx, c.from, c.to)
		return err
	default: // OpMetaRead
		_, err := e.st.Metadata(e.ctx, c.keys[0])
		return err
	}
}

// InstallPrincipals installs the benchmark's principal population on st:
// the controller/processor/regulator roles, one subject principal per
// data subject, and a wildcard purpose grant for the processor.
func InstallPrincipals(st *core.Store, subjects int) error {
	l := st.ACL()
	l.AddPrincipal(acl.Principal{ID: "controller", Role: acl.RoleController})
	l.AddPrincipal(acl.Principal{ID: "processor", Role: acl.RoleProcessor})
	l.AddPrincipal(acl.Principal{ID: "regulator", Role: acl.RoleRegulator})
	for i := 0; i < subjects; i++ {
		l.AddPrincipal(acl.Principal{ID: SubjectName(i), Role: acl.RoleSubject})
	}
	return l.AddGrant(acl.Grant{Principal: "processor", Purpose: "*"})
}

// NetPool runs the personas through the public SDK against a live server —
// or a cluster of primaries. It lazily dials one gdprkv client per
// (actor, purpose) session, each a single-connection pool authenticated at
// dial time: the GDPRbench session model, one authenticated principal and
// one declared purpose per session. A persona that switches purpose gets a
// distinct session, so pooled connections never carry ambient state from
// another identity.
type NetPool struct {
	addr string
	opts []gdprkv.Option

	mu      sync.Mutex
	clients map[string]*gdprkv.Client
}

// NewNetPool targets the server at addr, dialing every session with opts
// on top of its own: gdprkv.WithCluster makes the sessions cluster-aware,
// bootstrapping their slot map from addr and the given seeds.
func NewNetPool(addr string, opts ...gdprkv.Option) *NetPool {
	return &NetPool{addr: addr, opts: opts, clients: make(map[string]*gdprkv.Client)}
}

// session returns (dialing on first use) the client for an actor and
// declared purpose.
func (p *NetPool) session(actor, purpose string) (personaSession, error) {
	key := actor + "\x00" + purpose
	p.mu.Lock()
	defer p.mu.Unlock()
	if c, ok := p.clients[key]; ok {
		return sdkTarget{c: c}, nil
	}
	opts := append([]gdprkv.Option{gdprkv.WithPoolSize(1), gdprkv.WithActor(actor)}, p.opts...)
	if purpose != "" {
		opts = append(opts, gdprkv.WithPurpose(purpose))
	}
	c, err := gdprkv.Dial(context.Background(), p.addr, opts...)
	if err != nil {
		return nil, fmt.Errorf("experiments: dial session %s/%s: %w", actor, purpose, err)
	}
	p.clients[key] = c
	return sdkTarget{c: c}, nil
}

// Close releases every session client.
func (p *NetPool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for key, c := range p.clients {
		c.Close()
		delete(p.clients, key)
	}
}

func (s sdkTarget) do(c *personaCall) error {
	ctx := context.Background()
	var err error
	switch c.op {
	case OpReadOwn, OpProcRead:
		if len(c.keys) == 1 {
			_, err = s.c.GGet(ctx, c.keys[0])
			return err
		}
		res, err := s.c.GMGet(ctx, c.keys...)
		return batchErr(err, len(res), func(i int) error { return res[i].Err })
	case OpUpdateOwn, OpPut:
		opts := gdprkv.PutOptions{Owner: c.owner, Purposes: []string{c.purpose}, TTL: c.ttl, Origin: c.origin}
		if len(c.keys) == 1 {
			return s.c.GPut(ctx, c.keys[0], c.vals[0], opts)
		}
		return s.c.GMPut(ctx, c.keys, c.vals, opts)
	case OpAccess:
		_, err = s.c.Do(ctx, "ACCESS", c.owner)
	case OpPortab:
		_, err = s.c.ExportUser(ctx, c.owner)
	case OpObject:
		err = s.c.Object(ctx, c.owner, c.purpose)
	case OpErase:
		_, err = s.c.ForgetUser(ctx, c.owner)
	case OpRetune:
		_, err = s.c.Expire(ctx, c.keys[0], int64(c.ttl/time.Second))
	case OpPurposeQ:
		_, err = s.c.Do(ctx, "KEYSBYPURPOSE", c.purpose)
	case OpBreach:
		_, err = s.c.Do(ctx, "BREACH", c.from.UTC().Format(time.RFC3339), c.to.UTC().Format(time.RFC3339))
	default: // OpMetaRead
		_, err = s.c.Do(ctx, "GETMETA", c.keys[0])
	}
	return err
}

// InstallPrincipalsNet installs the principal population of
// InstallPrincipals on the node at addr, as the principal "controller",
// which the node must already know as a controller (gdprkv-server
// -controller controller) wherever access control is enforced. In cluster
// mode call it once per node — ACL state is node-local.
func InstallPrincipalsNet(ctx context.Context, addr string, subjects int) error {
	c, err := gdprkv.Dial(ctx, addr, gdprkv.WithPoolSize(1), gdprkv.WithActor("controller"))
	if err != nil {
		return err
	}
	defer c.Close()
	cmds := [][]string{
		{"ACL", "ADDPRINCIPAL", "processor", "processor"},
		{"ACL", "ADDPRINCIPAL", "regulator", "regulator"},
		{"ACL", "GRANT", "processor", "*"},
	}
	for i := 0; i < subjects; i++ {
		cmds = append(cmds, []string{"ACL", "ADDPRINCIPAL", SubjectName(i), "subject"})
	}
	for _, cmd := range cmds {
		if _, err := c.Do(ctx, cmd...); err != nil {
			return fmt.Errorf("experiments: %v on %s: %w", cmd[:2], addr, err)
		}
	}
	return nil
}

// Populate loads the subject population as the controller: every subject
// gets RecordsPerSubject records with purpose metadata drawn round-robin
// from the purpose vocabulary, one batch per subject and purpose (records
// sharing a purpose share one batch — and, keys being owner-tagged, one
// cluster slot).
func Populate(t PersonaTarget, cfg PersonaConfig) error {
	cfg.defaults()
	s, err := t.session("controller", "populate")
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < cfg.Subjects; i++ {
		for class, purpose := range cfg.Purposes {
			c := personaCall{op: OpPut, owner: SubjectName(i), purpose: purpose,
				ttl: cfg.TTL, origin: "gdprbench-populate"}
			for j := class; j < cfg.RecordsPerSubject; j += len(cfg.Purposes) {
				val := make([]byte, recordSize)
				rng.Read(val)
				c.keys = append(c.keys, RecordKey(i, j))
				c.vals = append(c.vals, val)
			}
			if len(c.keys) == 0 {
				continue
			}
			if err := s.do(&c); err != nil {
				return fmt.Errorf("experiments: populate %s: %w", c.owner, err)
			}
		}
	}
	return nil
}

// RunPersona runs cfg.Operations draws of the persona's mix against t.
// The target must hold the principal population (InstallPrincipals or
// InstallPrincipalsNet) and the dataset (Populate).
func RunPersona(t PersonaTarget, cfg PersonaConfig) (Result, error) {
	cfg.defaults()
	mix, ok := mixes[cfg.Role]
	if !ok {
		return Result{}, fmt.Errorf("experiments: unknown role %q", cfg.Role)
	}
	// The breach window is wall time by nature: an hour either side of the
	// run, which the run never outlasts.
	now := time.Now()
	p := &personaWorker{t: t, cfg: cfg, mix: mix,
		rng: rand.New(rand.NewSource(cfg.Seed * 31)), val: make([]byte, recordSize),
		erased: make(map[int]bool), from: now.Add(-time.Hour), to: now.Add(time.Hour)}
	res, err := timedLoop("gdprbench/"+string(cfg.Role), int64(cfg.Operations), 1,
		func(int) (worker, error) { return p, nil })
	if e, ok := t.(embeddedTarget); ok && err == nil && e.st.Trail() != nil {
		st := e.st.Trail().Stats()
		res.Audit = &st
	}
	return res, err
}

// personaWorker draws one persona's operations; sessions are opened while
// drawing, outside the timed window: GDPRbench measures operations, not
// connection establishment.
type personaWorker struct {
	t        PersonaTarget
	cfg      PersonaConfig
	mix      []weightedOp
	rng      *rand.Rand
	val      []byte
	erased   map[int]bool
	from, to time.Time

	subj int
	call personaCall
	sess personaSession
	err  error // opening sess failed
}

func (p *personaWorker) next(int64) (string, bool) {
	cfg, rng := p.cfg, p.rng
	op := pick(p.mix, rng)
	subj := rng.Intn(cfg.Subjects)
	if p.erased[subj] && (op == OpReadOwn || op == OpUpdateOwn || op == OpErase) {
		// GDPRbench redraws erased subjects for data-path operations.
		for tries := 0; tries < 4 && p.erased[subj]; tries++ {
			subj = rng.Intn(cfg.Subjects)
		}
		if p.erased[subj] {
			return "", false
		}
	}
	owner := SubjectName(subj)
	recIdx := rng.Intn(cfg.RecordsPerSubject)
	rec := RecordKey(subj, recIdx)
	purpose := cfg.Purposes[rng.Intn(len(cfg.Purposes))]

	p.subj = subj
	p.call = personaCall{op: op, owner: owner, keys: []string{rec}, purpose: purpose,
		ttl: cfg.TTL, from: p.from, to: p.to}
	// A customer acts as the subject; every other persona as itself.
	actor, declared := owner, ""
	if cfg.Role != RoleCustomer {
		actor = string(cfg.Role)
	}
	switch op {
	case OpReadOwn, OpUpdateOwn, OpPut, OpProcRead:
		// Data-path operations declare the record's purpose, except that
		// the controller writes under the purpose it drew.
		p.call.purpose = purposeOf(rec, cfg)
		declared = p.call.purpose
		if op == OpPut {
			declared = purpose
		}
		if cfg.Batch > 1 {
			p.call.keys, p.call.purpose = batchKeys(subj, recIdx, cfg)
			declared = p.call.purpose
		}
		if op == OpUpdateOwn || op == OpPut {
			rng.Read(p.val)
			p.call.vals = make([][]byte, len(p.call.keys))
			for i := range p.call.vals {
				p.call.vals[i] = p.val
			}
		}
	case OpRetune:
		p.call.ttl += time.Duration(rng.Intn(3600)) * time.Second
	}
	p.sess, p.err = p.t.session(actor, declared)
	return op, true
}

func (p *personaWorker) issue() error {
	if p.err != nil {
		return p.err
	}
	err := p.sess.do(&p.call)
	if p.call.op == OpErase && err == nil {
		p.erased[p.subj] = true
	}
	return ignoreBenign(err)
}

// batchKeys selects cfg.Batch record keys of the subject that share one
// populated purpose (record purposes are round-robin by index, so only
// indices congruent mod len(Purposes) can legally be read in one batch
// under a single declared purpose). Keys repeat when the subject has fewer
// congruent records than the batch size.
func batchKeys(subj, j0 int, cfg PersonaConfig) ([]string, string) {
	stride := len(cfg.Purposes)
	class := j0 % stride
	members := (cfg.RecordsPerSubject - class + stride - 1) / stride
	keys := make([]string, cfg.Batch)
	for i := range keys {
		keys[i] = RecordKey(subj, class+stride*(i%members))
	}
	return keys, cfg.Purposes[class]
}

// purposeOf recovers the purpose a record was populated with (round-robin
// by record index), so reads state the right purpose.
func purposeOf(rec string, cfg PersonaConfig) string {
	var i, j int
	if _, err := fmt.Sscanf(rec, "pd:{subject%06d}:rec%04d", &i, &j); err != nil {
		return cfg.Purposes[0]
	}
	return cfg.Purposes[j%len(cfg.Purposes)]
}

func pick(mix []weightedOp, rng *rand.Rand) string {
	f := rng.Float64()
	for _, w := range mix {
		if f < w.w {
			return w.op
		}
		f -= w.w
	}
	return mix[len(mix)-1].op
}
