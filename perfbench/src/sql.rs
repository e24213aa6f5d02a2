//! The `sql_mix` workload: a durable database with a paged table larger
//! than the buffer pool, and two client sessions in a closed loop mixing
//! point SELECTs, GROUP BY scans, autocommit INSERTs and explicit
//! transactions. Each round ends with a crash-drop (the handle is dropped
//! without `close`) and several timed reopens that must recover exactly the
//! acknowledged writes.
//!
//! The untraced run drives `Session::sql`. The traced run repeats every
//! round with the same inputs through the SQL layer's entry points —
//! `parse_statement`, `SharedCatalog::snapshot`, `run_select_auto_guarded`,
//! `plan_mutation`, and `SharedCatalog::submit` around the benchmark's own
//! `apply_mutation` closure — on `db.context().catalog`.

use crate::stats::{Metrics, Samples};
use crate::trace::Tracer;
use crate::{out_dir, Clock, Outcome, Rng};
use kath_data::{generate_corpus, CorpusSpec};
use kath_optimizer::{preferred_exec_mode, preferred_parallelism};
use kath_sql::{
    apply_mutation, parse_statement, plan_mutation, run_select_auto_guarded, Statement,
};
use kath_storage::{
    Catalog, CompileMode, DataType, ExecMode, GuardSpec, Schema, SharedCatalog, Table, Value,
    VectorMode,
};
use kathdb::{KathDB, Session};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Rows of the paged `movie_table`.
const MOVIES: usize = 100_000;
/// Rows `events` starts each round with.
const PREFILL: usize = 20_000;
/// Buffer-pool budget in decoded column pages (the paged tables hold
/// about ten times as many).
const POOL_PAGES: usize = 64;
/// Concurrent client sessions.
const CLIENTS: usize = 2;
/// Ops each client runs per round.
const OPS_PER_CLIENT: usize = 400;
/// Timed reopens of the crash-dropped directory per round.
const REOPENS: usize = 3;
/// First year a generated movie can have, and how many years there are.
const FIRST_YEAR: i64 = 1960;
const YEARS: u64 = 65;
/// Rows one explicit transaction inserts.
const TXN_ROWS: i64 = 4;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Point,
    Scan,
    Insert,
    Txn,
}

#[derive(Debug, Clone)]
enum Op {
    /// Point SELECT on `movie_table` by id.
    Point(i64),
    /// GROUP BY scan over `movie_table` from this year on.
    Scan(i64),
    /// Autocommit 1-row INSERT into `events` of (id, movie, kind).
    Insert([i64; 3]),
    /// BEGIN, these INSERTs, a read-your-writes SELECT of their ids, COMMIT.
    Txn(Vec<[i64; 3]>),
}

impl Op {
    fn kind(&self) -> Kind {
        match self {
            Op::Point(_) => Kind::Point,
            Op::Scan(_) => Kind::Scan,
            Op::Insert(_) => Kind::Insert,
            Op::Txn(_) => Kind::Txn,
        }
    }

    /// The event ids this op writes (acknowledged once it succeeds).
    fn writes(&self) -> Vec<i64> {
        match self {
            Op::Insert(row) => vec![row[0]],
            Op::Txn(rows) => rows.iter().map(|r| r[0]).collect(),
            _ => Vec::new(),
        }
    }
}

fn point_sql(id: i64) -> String {
    format!("SELECT id, title, year, did, vid FROM movie_table WHERE id = {id}")
}

fn scan_sql(year: i64) -> String {
    format!("SELECT year, COUNT(*), AVG(id) FROM movie_table WHERE year >= {year} GROUP BY year")
}

fn insert_sql(row: &[i64; 3]) -> String {
    format!(
        "INSERT INTO events VALUES ({}, {}, {})",
        row[0], row[1], row[2]
    )
}

fn txn_select_sql(rows: &[[i64; 3]]) -> String {
    let lo = rows.first().map_or(0, |r| r[0]);
    let hi = rows.last().map_or(0, |r| r[0]);
    format!("SELECT id FROM events WHERE id >= {lo} AND id <= {hi}")
}

/// One client's seeded op sequence: a shuffle of exactly 55% point
/// SELECTs, 5% GROUP BY scans, 30% autocommit INSERTs and 10% explicit
/// transactions, so every seed does the same amount of each. Scan years are
/// stratified over the generated range. Event ids are unique per client, so
/// every write is distinguishable after recovery.
fn ops_for(seed: u64, round: u64, client: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed ^ (round << 24) ^ ((client as u64 + 1) << 48));
    let share = |pct: usize| OPS_PER_CLIENT * pct / 100;
    let mut kinds: Vec<Kind> = [
        (Kind::Point, 55),
        (Kind::Scan, 5),
        (Kind::Insert, 30),
        (Kind::Txn, 10),
    ]
    .iter()
    .flat_map(|&(k, pct)| std::iter::repeat_n(k, share(pct)))
    .collect();
    rng.shuffle(&mut kinds);
    let scans = share(5) as u64;
    let mut next_id = 1_000_000 * (client as i64 + 1);
    let mut scan = 0u64;
    let mut event = |rng: &mut Rng| {
        next_id += 1;
        [
            next_id,
            1 + rng.below(MOVIES as u64) as i64,
            rng.below(8) as i64,
        ]
    };
    kinds
        .into_iter()
        .map(|k| match k {
            Kind::Point => Op::Point(1 + rng.below(MOVIES as u64) as i64),
            Kind::Scan => {
                let stratum = scan * YEARS / scans;
                let width = ((scan + 1) * YEARS / scans - stratum).max(1);
                scan += 1;
                Op::Scan(FIRST_YEAR + (stratum + rng.below(width)) as i64)
            }
            Kind::Insert => Op::Insert(event(&mut rng)),
            Kind::Txn => Op::Txn((0..TXN_ROWS).map(|_| event(&mut rng)).collect()),
        })
        .collect()
}

fn events_schema() -> Schema {
    Schema::of(&[
        ("id", DataType::Int),
        ("movie", DataType::Int),
        ("kind", DataType::Int),
    ])
}

/// Bytes of user data a value carries.
fn value_bytes(v: &Value) -> u64 {
    match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) | Value::Float(_) => 8,
        Value::Str(s) => s.len() as u64,
        Value::Blob(b) => b.len() as u64,
    }
}

fn table_bytes(t: &Table) -> u64 {
    t.rows().iter().flatten().map(value_bytes).sum()
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// What the generator put in `movie_table`: the rows, and per year the
/// movie count and id sum.
struct Truth {
    rows: Vec<Vec<Value>>,
    by_year: BTreeMap<i64, (i64, i64)>,
}

impl Truth {
    fn new(movies: &Table) -> Self {
        let mut by_year: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
        for row in movies.rows() {
            if let (Some(id), Some(year)) = (row[0].as_int(), row[2].as_int()) {
                let e = by_year.entry(year).or_default();
                e.0 += 1;
                e.1 += id;
            }
        }
        Self {
            rows: movies.rows().to_vec(),
            by_year,
        }
    }

    fn check_point(&self, id: i64, got: &Table) -> Result<(), String> {
        let want = usize::try_from(id - 1).ok().and_then(|i| self.rows.get(i));
        match (got.rows(), want) {
            ([row], Some(want)) if row == want => Ok(()),
            (rows, _) => Err(format!(
                "point SELECT id={id} returned {} wrong row(s)",
                rows.len()
            )),
        }
    }

    fn check_scan(&self, year: i64, got: &Table) -> Result<(), String> {
        let want: Vec<_> = self.by_year.range(year..).collect();
        if got.len() != want.len() {
            return Err(format!(
                "GROUP BY from {year}: {} groups, want {}",
                got.len(),
                want.len()
            ));
        }
        for row in got.rows() {
            let (y, n, avg) = (row[0].as_int(), row[1].as_int(), row[2].as_f64());
            let ok = match (y, n, avg, y.and_then(|y| self.by_year.get(&y))) {
                (Some(y), Some(n), Some(avg), Some(&(count, sum))) if y >= year => {
                    n == count
                        && (avg - sum as f64 / count as f64).abs() <= 1e-9 * avg.abs().max(1.0)
                }
                _ => false,
            };
            if !ok {
                return Err(format!("GROUP BY from {year}: wrong group {row:?}"));
            }
        }
        Ok(())
    }
}

fn check_txn_read(rows: &[[i64; 3]], got: &Table) -> Result<(), String> {
    let mut ids: Vec<i64> = got.rows().iter().filter_map(|r| r[0].as_int()).collect();
    ids.sort_unstable();
    let want: Vec<i64> = rows.iter().map(|r| r[0]).collect();
    if ids == want {
        Ok(())
    } else {
        Err(format!(
            "transaction does not read its own writes: got {ids:?}, want {want:?}"
        ))
    }
}

/// Per-class latencies and outcomes of one client (or of a whole run).
#[derive(Default)]
struct Tally {
    point: Samples,
    scan: Samples,
    insert: Samples,
    txn: Samples,
    all: Samples,
    acked: Vec<i64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    compiled: Samples,
    workers: Samples,
}

impl Tally {
    fn record(&mut self, op: &Op, ms: f64, result: Result<(), String>) {
        self.attempted += 1;
        self.all.push(ms);
        match op.kind() {
            Kind::Point => self.point.push(ms),
            Kind::Scan => self.scan.push(ms),
            Kind::Insert => self.insert.push(ms),
            Kind::Txn => self.txn.push(ms),
        }
        match result {
            Ok(()) => self.acked.extend(op.writes()),
            Err(e) => self.fail(e),
        }
    }

    fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(e);
        }
    }

    fn absorb(&mut self, other: Tally) {
        for (a, b) in [
            (&mut self.point, &other.point),
            (&mut self.scan, &other.scan),
            (&mut self.insert, &other.insert),
            (&mut self.txn, &other.txn),
            (&mut self.all, &other.all),
            (&mut self.compiled, &other.compiled),
            (&mut self.workers, &other.workers),
        ] {
            a.extend(b);
        }
        self.acked.extend(other.acked);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }
}

/// Runs one op through `Session::sql`; returns its latency and verdict.
fn session_op(s: &mut Session, op: &Op, truth: &Truth) -> (f64, Result<(), String>) {
    let start = Instant::now();
    let result = match op {
        Op::Point(id) => s.sql(&point_sql(*id)).map(Some),
        Op::Scan(year) => s.sql(&scan_sql(*year)).map(Some),
        Op::Insert(row) => s.sql(&insert_sql(row)).map(|_| None),
        Op::Txn(rows) => (|| {
            s.begin()?;
            for row in rows {
                s.sql(&insert_sql(row))?;
            }
            let read = s.sql(&txn_select_sql(rows))?;
            s.commit()?;
            Ok(Some(read))
        })(),
    };
    let ms = start.elapsed().as_secs_f64() * 1e3;
    if s.in_transaction() {
        let _ = s.rollback();
    }
    (ms, verdict(op, result.map_err(|e| e.to_string()), truth))
}

/// Checks what an op returned: an error fails it, and a SELECT's rows must
/// be what the generator and the op's own writes say.
fn verdict(op: &Op, result: Result<Option<Table>, String>, truth: &Truth) -> Result<(), String> {
    match (op, result) {
        (_, Err(e)) => Err(format!("{op:?}: {e}")),
        (Op::Point(id), Ok(Some(t))) => truth.check_point(*id, &t),
        (Op::Scan(year), Ok(Some(t))) => truth.check_scan(*year, &t),
        (Op::Txn(rows), Ok(Some(t))) => check_txn_read(rows, &t),
        _ => Ok(()),
    }
}

/// The session's drive choice for a SELECT over `catalog` (mirrors
/// `Session::sql`: the cost model's pick from the largest cardinality).
fn pick_strategy(catalog: &Catalog) -> (ExecMode, usize) {
    let max_rows = catalog
        .table_names()
        .iter()
        .filter_map(|n| catalog.get(n).ok())
        .map(|t| t.len())
        .max()
        .unwrap_or(0);
    let mode = preferred_exec_mode(max_rows);
    let threads = match mode {
        ExecMode::Volcano => 1,
        m => preferred_parallelism(max_rows, m),
    };
    (mode, threads)
}

/// The traced SQL replay over the shared catalog.
struct SqlReplay {
    shared: SharedCatalog,
    compile: CompileMode,
    limits: GuardSpec,
}

impl SqlReplay {
    fn parse(&self, tr: &mut Tracer, sql: &str) -> Result<Statement, String> {
        tr.time("sql.parse", || parse_statement(sql))
            .map_err(|e| e.to_string())
    }

    fn select(
        &self,
        tr: &mut Tracer,
        catalog: &Catalog,
        sql: &str,
        span: &str,
        tally: &mut Tally,
    ) -> Result<Table, String> {
        let Statement::Select(select) = self.parse(tr, sql)? else {
            return Err(format!("not a SELECT: {sql}"));
        };
        let (mode, threads) = pick_strategy(catalog);
        let guard = self.limits.guard();
        let (table, stats) = tr
            .time(span, || {
                run_select_auto_guarded(
                    catalog,
                    &select,
                    "sql_result",
                    mode,
                    threads,
                    VectorMode::default(),
                    self.compile,
                    &guard,
                )
            })
            .map_err(|e| e.to_string())?;
        tally.compiled.push(if stats.compiled { 1.0 } else { 0.0 });
        tally.workers.push(stats.workers as f64);
        Ok(table)
    }

    fn snapshot_select(
        &self,
        tr: &mut Tracer,
        sql: &str,
        span: &str,
        tally: &mut Tally,
    ) -> Result<Table, String> {
        let snapshot = tr.time("storage.snapshot", || self.shared.snapshot());
        self.select(tr, &snapshot, sql, span, tally)
    }

    fn insert(&self, tr: &mut Tracer, row: &[i64; 3]) -> Result<(), String> {
        let stmt = self.parse(tr, &insert_sql(row))?;
        let snapshot = tr.time("storage.snapshot", || self.shared.snapshot());
        let record = tr
            .time("sql.plan_mutation", || plan_mutation(&snapshot, &stmt))
            .map_err(|e| e.to_string())?;
        drop(snapshot);
        let records = [record];
        let submit = tr.enter("storage.submit");
        let out = self.shared.submit(&records, false, |c| {
            tr.time("storage.apply", || {
                apply_mutation(c, &records[0], "sql_result")
            })
        });
        tr.exit(submit);
        out.map(|_| ()).map_err(|e| e.to_string())
    }

    fn txn(&self, tr: &mut Tracer, rows: &[[i64; 3]], tally: &mut Tally) -> Result<Table, String> {
        let mut work = tr.time("storage.fork", || self.shared.snapshot().catalog().clone());
        let mut staged = Vec::new();
        for row in rows {
            let stmt = self.parse(tr, &insert_sql(row))?;
            let record = tr
                .time("sql.plan_mutation", || plan_mutation(&work, &stmt))
                .map_err(|e| e.to_string())?;
            tr.time("sql.stage_apply", || {
                apply_mutation(&mut work, &record, "sql_result")
            })
            .map_err(|e| e.to_string())?;
            staged.push(record);
        }
        let read = self.select(tr, &work, &txn_select_sql(rows), "sql.select_txn", tally)?;
        let submit = tr.enter("storage.submit");
        let out = self.shared.submit(&staged, true, |c| {
            tr.time("storage.apply", || {
                staged
                    .iter()
                    .try_for_each(|r| apply_mutation(c, r, "txn_commit").map(|_| ()))
            })
        });
        tr.exit(submit);
        out.map_err(|e| e.to_string())?;
        Ok(read)
    }

    fn op(
        &self,
        tr: &mut Tracer,
        op: &Op,
        truth: &Truth,
        tally: &mut Tally,
    ) -> (f64, Result<(), String>) {
        let start = Instant::now();
        let root = tr.enter("sql.op");
        let result = match op {
            Op::Point(id) => self
                .snapshot_select(tr, &point_sql(*id), "sql.select_point", tally)
                .map(Some),
            Op::Scan(year) => self
                .snapshot_select(tr, &scan_sql(*year), "sql.select_scan", tally)
                .map(Some),
            Op::Insert(row) => self.insert(tr, row).map(|()| None),
            Op::Txn(rows) => self.txn(tr, rows, tally).map(Some),
        };
        tr.exit(root);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        (ms, verdict(op, result, truth))
    }
}

/// A round's database, ready for the op loop.
struct Prepared {
    db: KathDB,
    dir: std::path::PathBuf,
    truth: Truth,
    prefill: Vec<i64>,
    user_bytes: u64,
}

/// Set-up: generate the corpus, open a fresh durable directory, load and
/// checkpoint both tables into KPAG pages, and budget the pool.
fn prepare(seed: u64, round: u64, dir: std::path::PathBuf) -> Result<Prepared, String> {
    let _ = std::fs::remove_dir_all(&dir);
    let corpus = generate_corpus(&CorpusSpec {
        movies: MOVIES,
        seed: seed + round,
        ..CorpusSpec::default()
    });
    let movies = corpus.movies;
    let mut rng = Rng::new(seed ^ round.rotate_left(17) ^ 0x5eed);
    let rows: Vec<Vec<Value>> = (1..=PREFILL as i64)
        .map(|id| {
            vec![
                Value::Int(id),
                Value::Int(1 + rng.below(MOVIES as u64) as i64),
                Value::Int(rng.below(8) as i64),
            ]
        })
        .collect();
    let events = Table::from_rows("events", events_schema(), rows).map_err(|e| e.to_string())?;
    let user_bytes = table_bytes(&movies) + table_bytes(&events);
    let truth = Truth::new(&movies);
    let mut db = KathDB::open(&dir).map_err(|e| e.to_string())?;
    db.load_table(movies, "file://data/movie_table")
        .map_err(|e| e.to_string())?;
    db.load_table(events, "file://data/events")
        .map_err(|e| e.to_string())?;
    db.checkpoint().map_err(|e| e.to_string())?;
    db.set_pool_budget(POOL_PAGES);
    Ok(Prepared {
        db,
        dir,
        truth,
        prefill: (1..=PREFILL as i64).collect(),
        user_bytes,
    })
}

/// Counters read before and after a round's op loop.
struct Counters {
    wal_bytes: u64,
    fsyncs: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    zone_skips: u64,
}

impl Counters {
    fn read(db: &KathDB) -> Self {
        let d = db.durability_status();
        let p = db.pool_status();
        Self {
            wal_bytes: d.as_ref().map_or(0, |d| d.wal_bytes),
            fsyncs: d.as_ref().map_or(0, |d| d.group_fsyncs),
            hits: p.hits,
            misses: p.misses,
            evictions: p.evictions,
            zone_skips: p.zone_skips,
        }
    }
}

/// Everything one round measured.
struct RoundResult {
    tally: Tally,
    loop_s: f64,
    recovery_ms: Samples,
    bytes_per_user_byte: f64,
    before: Counters,
    after: Counters,
    commits: u64,
    rows_written: u64,
    trace: Option<Tracer>,
    /// Recovery contents or another round-level check failed.
    checks_ok: bool,
}

/// Runs the op loop of one prepared round (traced through the replay when
/// `epoch` is given), then crash-drops and reopens the directory.
fn run_round(p: Prepared, seed: u64, round: u64, epoch: Option<Instant>) -> RoundResult {
    let before = Counters::read(&p.db);
    let truth = &p.truth;
    let loop_start = Instant::now();
    let results: Vec<(Tally, Option<Tracer>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let ops = ops_for(seed, round, c);
                let mut session = p.db.session();
                let replay = epoch.map(|_| SqlReplay {
                    shared: p.db.context().catalog.clone(),
                    compile: CompileMode::from_env(),
                    limits: GuardSpec::default(),
                });
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    let mut tr = epoch.map(Tracer::new);
                    for (i, op) in ops.iter().enumerate() {
                        let (ms, verdict) = match (&replay, tr.as_mut()) {
                            (Some(replay), Some(tr)) => {
                                tr.set_op(round << 40 | (c as u64) << 32 | i as u64);
                                replay.op(tr, op, truth, &mut tally)
                            }
                            _ => session_op(&mut session, op, truth),
                        };
                        tally.record(op, ms, verdict);
                    }
                    (tally, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let loop_s = loop_start.elapsed().as_secs_f64();
    let after = Counters::read(&p.db);

    let mut tally = Tally::default();
    let mut trace: Option<Tracer> = None;
    for (t, tr) in results {
        tally.absorb(t);
        if let Some(tr) = tr {
            match trace.as_mut() {
                Some(all) => all.merge(tr),
                None => trace = Some(tr),
            }
        }
    }
    let commits = tally.insert.len() as u64 + tally.txn.len() as u64;
    let rows_written = tally.acked.len() as u64;

    // Crash: drop the handle without `close`, so recovery replays the WAL.
    let Prepared {
        db,
        dir,
        prefill,
        user_bytes,
        ..
    } = p;
    drop(db);
    let user_bytes = user_bytes + 24 * rows_written;
    let bytes_per_user_byte = dir_bytes(&dir) as f64 / user_bytes as f64;
    let mut expected: Vec<i64> = prefill;
    expected.extend(&tally.acked);
    expected.sort_unstable();
    let mut recovery_ms = Samples::default();
    let mut checks_ok = true;
    for _ in 0..REOPENS {
        let start = Instant::now();
        let reopened = KathDB::open(&dir);
        recovery_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let verdict = reopened
            .map_err(|e| e.to_string())
            .and_then(|mut db| check_recovered(&mut db, &expected));
        if let Err(e) = verdict {
            eprintln!("recovery check failed: {e}");
            checks_ok = false;
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    RoundResult {
        tally,
        loop_s,
        recovery_ms,
        bytes_per_user_byte,
        before,
        after,
        commits,
        rows_written,
        trace,
        checks_ok,
    }
}

/// After recovery `events` holds exactly the prefill plus every
/// acknowledged write, and `movie_table` is whole.
fn check_recovered(db: &mut KathDB, expected: &[i64]) -> Result<(), String> {
    let ids = db.sql("SELECT id FROM events").map_err(|e| e.to_string())?;
    let mut got: Vec<i64> = ids.rows().iter().filter_map(|r| r[0].as_int()).collect();
    got.sort_unstable();
    if got != expected {
        return Err(format!(
            "events holds {} rows after recovery, want exactly the {} acknowledged",
            got.len(),
            expected.len()
        ));
    }
    let n = db
        .sql("SELECT COUNT(*) FROM movie_table")
        .map_err(|e| e.to_string())?;
    match n.rows().first().and_then(|r| r[0].as_int()) {
        Some(n) if n == MOVIES as i64 => Ok(()),
        other => Err(format!("movie_table holds {other:?} rows after recovery")),
    }
}

/// `sql_mix`. In a traced run every round runs twice on identical inputs:
/// through `Session::sql`, then through the traced replay.
pub fn sql_mix(seed: u64, clock: &Clock, trace: bool) -> Outcome {
    let mut setup_s = Samples::default();
    let mut untraced = Tally::default();
    let mut traced = Tally::default();
    let mut loop_s = 0.0;
    let mut recovery_ms = Samples::default();
    let mut bytes_ratio = Samples::default();
    let mut checks_ok = true;
    let mut tracer: Option<Tracer> = None;
    let mut replay_recovery = Samples::default();
    let (mut commits, mut rows, mut wal_bytes, mut fsyncs) = (0u64, 0u64, 0u64, 0u64);
    let (mut hits, mut misses, mut evictions, mut zone_skips) = (0u64, 0u64, 0u64, 0u64);
    let base = out_dir().join(format!("sql_mix-{}", std::process::id()));
    let mut round = 0u64;
    while clock.more(round, 3) {
        let started = Instant::now();
        let passes: &[bool] = if trace { &[false, true] } else { &[false] };
        for &traced_pass in passes {
            let prep_start = Instant::now();
            let p = match prepare(
                seed,
                round,
                base.join(format!("round-{round}-{traced_pass}")),
            ) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("set-up failed: {e}");
                    checks_ok = false;
                    break;
                }
            };
            if !traced_pass {
                setup_s.push(prep_start.elapsed().as_secs_f64());
            }
            let r = run_round(p, seed, round, traced_pass.then(|| clock.epoch()));
            checks_ok &= r.checks_ok;
            if traced_pass {
                traced.absorb(r.tally);
                replay_recovery.extend(&r.recovery_ms);
                commits += r.commits;
                rows += r.rows_written;
                wal_bytes += r.after.wal_bytes - r.before.wal_bytes;
                fsyncs += r.after.fsyncs - r.before.fsyncs;
                hits += r.after.hits - r.before.hits;
                misses += r.after.misses - r.before.misses;
                evictions += r.after.evictions - r.before.evictions;
                zone_skips += r.after.zone_skips - r.before.zone_skips;
                if let Some(tr) = r.trace {
                    match tracer.as_mut() {
                        Some(all) => all.merge(tr),
                        None => tracer = Some(tr),
                    }
                }
            } else {
                untraced.absorb(r.tally);
                loop_s += r.loop_s;
                recovery_ms.extend(&r.recovery_ms);
                bytes_ratio.push(r.bytes_per_user_byte);
            }
        }
        clock.lap(started);
        round += 1;
        if !checks_ok {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&base);

    let t = &untraced;
    let mut e2e = Metrics::default();
    e2e.set("setup_s", setup_s.median(), "s");
    e2e.set("op_ms.p50", t.all.median(), "ms");
    e2e.set("op_ms.p90", t.all.quantile(0.9), "ms");
    e2e.set("ops_per_s", t.all.len() as f64 / loop_s, "1/s");

    let mut report = Metrics::default();
    report.set("setup_s", setup_s.median(), "s");
    report.set("sql_point_ms.p50", t.point.median(), "ms");
    report.set("sql_point_ms.p99", t.point.quantile(0.99), "ms");
    report.set("sql_scan_ms.p50", t.scan.median(), "ms");
    report.set("sql_scan_ms.p90", t.scan.quantile(0.9), "ms");
    report.set("sql_insert_ms.p50", t.insert.median(), "ms");
    report.set("sql_insert_ms.p99", t.insert.quantile(0.99), "ms");
    report.set("sql_commit_ms.p50", t.txn.median(), "ms");
    report.set("sql_ops_per_s", t.all.len() as f64 / loop_s, "ops/s");
    report.set("recovery_ms", recovery_ms.median(), "ms");
    report.set("bytes_per_user_byte", bytes_ratio.median(), "ratio");
    report.set(
        "error_rate",
        t.failed as f64 / t.attempted.max(1) as f64,
        "ratio",
    );
    report.set("op_samples", t.all.len() as f64, "count");

    let mut layers = Metrics::default();
    if let Some(tr) = &tracer {
        for (metric, span) in [
            ("sql.parse_ms", "sql.parse"),
            ("sql.select_point_ms", "sql.select_point"),
            ("sql.select_scan_ms", "sql.select_scan"),
            ("sql.plan_mutation_ms", "sql.plan_mutation"),
            ("storage.snapshot_ms", "storage.snapshot"),
            ("storage.fork_ms", "storage.fork"),
            ("storage.apply_ms", "storage.apply"),
        ] {
            layers.set(metric, tr.per_op(span).median(), "ms");
        }
        layers.set(
            "storage.commit_wait_ms",
            tr.per_op_self("storage.submit").median(),
            "ms",
        );
        layers.set("sql.compiled_share", traced.compiled.mean(), "ratio");
        layers.set("sql.workers", traced.workers.mean(), "count");
        layers.set(
            "wal.fsyncs_per_commit",
            fsyncs as f64 / commits.max(1) as f64,
            "ratio",
        );
        layers.set(
            "wal.bytes_per_row",
            wal_bytes as f64 / rows.max(1) as f64,
            "bytes",
        );
        layers.set(
            "pool.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
        );
        layers.set("pool.evictions", evictions as f64, "count");
        layers.set("pool.zone_skips", zone_skips as f64, "count");
        layers.set("recovery.open_ms", replay_recovery.median(), "ms");
        layers.set(
            "trace.coverage",
            tr.coverage("sql.op", &["sql.", "storage."]),
            "ratio",
        );
        layers.set(
            "trace.overhead_ms",
            traced.all.mean() - untraced.all.mean(),
            "ms",
        );
    }
    let mut all = untraced;
    all.absorb(traced);
    for e in &all.errors {
        eprintln!("failed op: {e}");
    }
    Outcome {
        attempted: all.attempted,
        failed: all.failed,
        checks_ok,
        e2e,
        report,
        layers,
        trace: tracer,
    }
}
