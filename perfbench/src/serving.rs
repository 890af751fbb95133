//! The `serve_mix` workload: a `modref serve --listen` subprocess driven
//! by closed-loop clients — one TCP connection per worker thread, one
//! request in flight per connection, as CLI wrappers, editors and CI
//! jobs that wait for each answer call it.
//!
//! Every cycle of the mix is a seeded shuffle of v2 requests against the
//! paper's medical spec: mostly hash-referenced `parse` / `lint` /
//! `estimate` / `refine` (the spec-cache hit path), a few `lint` runs
//! with a partition, one `explore` and one `verify`, and inline-spec
//! `parse` requests whose text differs per request (the parse path).
//! Every response must equal the line the in-process facade produces
//! for the same request.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use modref_core::api::{
    Codesign, ExploreOpts, LintOpts, Request, RequestOp, Response, ResponseBody, SimParams,
    SpecSource, VerifyOpts,
};
use modref_core::ImplModel;
use modref_rng::Rng;

use crate::measure::{self, median, ms, quantile, repeat_ms, Report};

/// The request kinds of the mix, in report order. `parse_inline` is a
/// `parse` carrying its spec text; `lint_part` a `lint` with a
/// partition.
pub const OPS: [&str; 8] = [
    "parse",
    "parse_inline",
    "lint",
    "lint_part",
    "estimate",
    "refine",
    "explore",
    "verify",
];

/// One request of the mix with the response line it must receive.
struct Template {
    /// Index into [`OPS`].
    op: usize,
    /// The request line; `parse_inline` requests get a fresh text per
    /// request from [`Mix::line`] instead.
    line: String,
    /// The expected response line.
    expected: String,
    /// The decoded request, for in-process execution.
    req: Request,
}

/// The mix: one cycle of requests, each id its position plus one, so a
/// response names its template (one request in flight per connection
/// makes ids reusable).
struct Mix {
    text: String,
    load_line: String,
    load_expected: String,
    templates: Vec<Template>,
}

fn op_of(name: &str) -> usize {
    OPS.iter().position(|o| *o == name).expect("known op")
}

/// The inline spec of request `n` on connection `conn`: the medical
/// text plus a comment, so each one misses the server's spec cache.
fn inline_text(text: &str, conn: usize, n: u64) -> String {
    format!("{text}// request {conn}.{n}\n")
}

/// Executes a mix request in-process through the facade, exactly as the
/// server maps it.
fn execute(cd: &Codesign, op: &RequestOp) -> Result<ResponseBody, String> {
    let err = |e: modref_core::ModrefError| e.to_string();
    Ok(match op {
        RequestOp::Parse {
            source: SpecSource::Text(text),
        } => ResponseBody::Parsed(Codesign::parse("<request>", text).map_err(err)?.stats()),
        RequestOp::Parse { .. } => ResponseBody::Parsed(cd.stats()),
        RequestOp::Lint { part, model, .. } => {
            let mut opts = LintOpts::new();
            if let Some(p) = part {
                opts = opts.with_part(p.clone());
            }
            if let Some(m) = model {
                opts = opts.with_model(ImplModel::ALL[usize::from(*m) - 1]);
            }
            ResponseBody::from_diagnostics(&cd.lint(&opts).map_err(err)?)
        }
        RequestOp::Estimate { part, .. } => ResponseBody::Estimated {
            report: cd.estimate(part).map_err(err)?,
        },
        RequestOp::Refine { part, model, .. } => {
            let refined = cd
                .refine(part, ImplModel::ALL[usize::from(*model) - 1])
                .map_err(err)?;
            ResponseBody::Refined {
                model: *model,
                behaviors: refined.spec.behavior_count(),
                buses: refined.architecture.buses.len(),
                printed_lines: modref_spec::printer::line_count(&refined.spec),
            }
        }
        RequestOp::Explore { seeds, .. } => {
            let opts = ExploreOpts::new().with_seeds(seeds.expect("mix sets seeds"));
            ResponseBody::from_exploration(&cd.explore(&opts).map_err(err)?, None)
        }
        RequestOp::Verify { seeds, .. } => {
            let opts = ExploreOpts::new().with_seeds(seeds.expect("mix sets seeds"));
            let out = cd.explore(&opts).map_err(err)?;
            let v = cd.verify(&out, &VerifyOpts::new()).map_err(err)?;
            ResponseBody::from_verification(&v)
        }
        other => return Err(format!("`{}` is not in the mix", other.name())),
    })
}

impl Mix {
    fn medical() -> Result<Mix, String> {
        let text = modref_spec::printer::print(&modref_workloads::medical_spec());
        let cd = Codesign::parse("<request>", &text).map_err(|e| e.to_string())?;
        let hash = modref_core::serve::spec_hash(&text);
        let part = modref_workloads::named_partition("medical").expect("medical ships Design1");
        let src = || SpecSource::Hash(hash.clone());
        let lint = |part: Option<String>, model: Option<u8>| RequestOp::Lint {
            source: src(),
            part,
            model,
            deny: Vec::new(),
            allow: Vec::new(),
        };
        let mut ops = Vec::new();
        for _ in 0..4 {
            ops.push(RequestOp::Parse { source: src() });
            ops.push(lint(None, None));
        }
        for _ in 0..2 {
            ops.push(RequestOp::Estimate {
                source: src(),
                part: part.clone(),
            });
            ops.push(RequestOp::Parse {
                source: SpecSource::Text(inline_text(&text, 0, 0)),
            });
        }
        for model in [1, 2, 3, 4, 1, 2, 3, 4] {
            ops.push(RequestOp::Refine {
                source: src(),
                part: part.clone(),
                model,
            });
        }
        ops.push(lint(Some(part.clone()), Some(1)));
        ops.push(lint(Some(part.clone()), Some(3)));
        ops.push(RequestOp::Explore {
            source: src(),
            part: None,
            seeds: Some(2),
            threads: None,
            top: None,
        });
        ops.push(RequestOp::Verify {
            source: src(),
            part: None,
            seeds: Some(1),
            threads: None,
            sim: SimParams::default(),
        });

        let mut templates = Vec::new();
        for (i, op) in ops.into_iter().enumerate() {
            let name = match &op {
                RequestOp::Parse {
                    source: SpecSource::Text(_),
                } => "parse_inline",
                RequestOp::Lint { part: Some(_), .. } => "lint_part",
                other => other.name(),
            };
            let id = i as u64 + 1;
            let body = execute(&cd, &op)?;
            let req = Request::v2(id, op);
            templates.push(Template {
                op: op_of(name),
                line: req.to_json_line(),
                expected: Response::ok(id, body).to_json_line(),
                req,
            });
        }
        let load = Request::v2(0, RequestOp::LoadSpec { text: text.clone() });
        let loaded = ResponseBody::Loaded {
            hash,
            stats: cd.stats(),
        };
        Ok(Mix {
            load_line: load.to_json_line(),
            load_expected: Response::ok(0, loaded).to_json_line(),
            text,
            templates,
        })
    }

    /// The request line to send for template `t` as request `n` of
    /// connection `conn`.
    fn line(&self, t: usize, conn: usize, n: u64) -> String {
        let tpl = &self.templates[t];
        if OPS[tpl.op] != "parse_inline" {
            return tpl.line.clone();
        }
        let source = SpecSource::Text(inline_text(&self.text, conn, n));
        Request::v2(tpl.req.id, RequestOp::Parse { source }).to_json_line()
    }
}

/// A `modref serve --listen 127.0.0.1:0` child. Dropping it kills and
/// reaps the process.
struct Server {
    child: Child,
    addr: String,
    stderr: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts the server and waits until it prints its address.
    fn spawn(
        modref: &Path,
        workers: usize,
        conns: usize,
        trace: Option<&Path>,
    ) -> Result<Self, String> {
        let mut cmd = Command::new(modref);
        if let Some(t) = trace {
            cmd.arg("--trace").arg(t);
        }
        let mut child = cmd
            .args(["serve", "--listen", "127.0.0.1:0"])
            .args(["--workers", &workers.to_string()])
            .args(["--max-conns", &conns.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", modref.display()))?;
        let mut err = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut first = String::new();
        let _ = err.read_line(&mut first);
        // Drain the rest so the server never blocks on a full pipe.
        let stderr = std::thread::spawn(move || for _ in err.lines() {});
        let mut server = Server {
            child,
            addr: String::new(),
            stderr: Some(stderr),
        };
        match first.trim().strip_prefix("modref serve listening on ") {
            Some(addr) => server.addr = addr.to_string(),
            None => return Err(format!("server did not report an address: {first:?}")),
        }
        Ok(server)
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    fn connect(&self) -> Result<Conn, String> {
        let stream =
            TcpStream::connect(&self.addr).map_err(|e| format!("connecting {}: {e}", self.addr))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { stream, reader })
    }

    /// Waits for the server to exit on its own once every connection
    /// closed, and checks that it exited cleanly.
    fn finish(mut self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("server exited with {status}")),
                None if Instant::now() > deadline => return Err("server did not exit".into()),
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

/// One client connection.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Sends one request line and returns the response line and the
    /// time from writing the request to reading the whole response.
    fn call(&mut self, line: &str) -> Result<(String, f64), String> {
        let mut out = String::with_capacity(line.len() + 1);
        out.push_str(line);
        out.push('\n');
        let mut resp = String::new();
        let t = Instant::now();
        self.stream
            .write_all(out.as_bytes())
            .map_err(|e| format!("sending: {e}"))?;
        let n = self
            .reader
            .read_line(&mut resp)
            .map_err(|e| format!("receiving: {e}"))?;
        let elapsed = ms(t.elapsed());
        if n == 0 {
            return Err("server closed the connection".into());
        }
        resp.truncate(resp.trim_end_matches('\n').len());
        Ok((resp, elapsed))
    }
}

/// What one client saw: per-request (template, latency ms), error
/// responses, and the first response that differed from its expected
/// line.
#[derive(Default)]
struct ClientLog {
    samples: Vec<(usize, f64)>,
    errors: u64,
    wrong: Option<String>,
}

impl ClientLog {
    fn record(&mut self, t: usize, expected: &str, got: &str, ms: f64) {
        self.samples.push((t, ms));
        if got == expected {
            return;
        }
        if matches!(
            Response::from_json(got).map(|r| r.body),
            Ok(ResponseBody::Error { .. })
        ) {
            self.errors += 1;
        }
        self.wrong.get_or_insert_with(|| {
            format!("response {got:?} differs from the expected {expected:?}")
        });
    }
}

/// Runs connection `conn`'s seeded request stream until the cycle that
/// ends after `until`: one request in flight, each cycle of the mix
/// freshly shuffled.
fn client(
    mix: &Mix,
    mut c: Conn,
    conn: usize,
    seed: u64,
    until: Instant,
) -> Result<ClientLog, String> {
    let mut rng = Rng::seed_from_u64(seed ^ (conn as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut order: Vec<usize> = (0..mix.templates.len()).collect();
    let mut log = ClientLog::default();
    // Warm-up used request numbers below the template count.
    let mut n = mix.templates.len() as u64;
    // Whole cycles only, so every run measures the same request mix.
    while Instant::now() < until {
        rng.shuffle(&mut order);
        for &t in &order {
            n += 1;
            let (got, ms) = c.call(&mix.line(t, conn, n))?;
            log.record(t, &mix.templates[t].expected, &got, ms);
        }
    }
    Ok(log)
}

/// Starts a server, connects, and loads the spec: the set-up a caller
/// pays before its first unit of work. Returns the server, the loading
/// connection and the elapsed seconds.
fn start(
    mix: &Mix,
    env: &Env,
    conns: usize,
    trace: Option<&Path>,
) -> Result<(Server, Conn, f64), String> {
    let t = Instant::now();
    let server = Server::spawn(&env.modref, env.threads, conns, trace)?;
    let mut c = server.connect()?;
    let (got, _) = c.call(&mix.load_line)?;
    let elapsed = t.elapsed().as_secs_f64();
    if got != mix.load_expected {
        return Err(format!(
            "load_spec answered {got:?}, expected {:?}",
            mix.load_expected
        ));
    }
    Ok((server, c, elapsed))
}

/// Where the server binary is and how many workers and connections to
/// run.
pub struct Env {
    pub modref: PathBuf,
    pub threads: usize,
    pub seed: u64,
}

/// One closed-loop session: the measured server's samples, CPU and
/// memory, plus its set-up time.
struct Session {
    log: ClientLog,
    setup_s: f64,
    elapsed_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
}

/// Runs the mix for `budget` on a fresh server with `env.threads`
/// client connections, after one unshuffled warm-up cycle per
/// connection.
fn session(
    mix: &Mix,
    env: &Env,
    budget: Duration,
    trace: Option<&Path>,
) -> Result<Session, String> {
    let (server, load_conn, setup_s) = start(mix, env, 1 + env.threads, trace)?;
    let mut conns = Vec::new();
    for conn in 0..env.threads {
        let mut c = server.connect()?;
        let mut warm = ClientLog::default();
        for (t, tpl) in mix.templates.iter().enumerate() {
            let (got, ms) = c.call(&mix.line(t, conn, t as u64))?;
            warm.record(t, &tpl.expected, &got, ms);
        }
        if let Some(w) = warm.wrong {
            return Err(w);
        }
        conns.push(c);
    }

    let pid = server.pid();
    let cpu0 = measure::cpu_seconds(&pid)?;
    let start = Instant::now();
    let until = start + budget;
    let logs: Vec<Result<ClientLog, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(i, c)| s.spawn(move || client(mix, c, i, env.seed, until)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let cpu_s = measure::cpu_seconds(&pid)? - cpu0;
    let peak_rss_mb = measure::peak_rss_mb(&pid)?;
    drop(load_conn);

    let mut log = ClientLog::default();
    for l in logs {
        let l = l?;
        log.samples.extend(l.samples);
        log.errors += l.errors;
        log.wrong = log.wrong.or(l.wrong);
    }
    server.finish()?;
    Ok(Session {
        log,
        setup_s,
        elapsed_s,
        cpu_s,
        peak_rss_mb,
    })
}

/// Adds a session's requests and error responses to `report`'s counts;
/// returns whether every response was the expected one.
fn account(report: &mut Report, log: &ClientLog) -> bool {
    report.attempted += log.samples.len() as u64;
    report.failed += log.errors;
    if let Some(w) = &log.wrong {
        eprintln!("modref-perfbench: {w}");
    }
    log.wrong.is_none()
}

fn latencies(log: &ClientLog) -> Vec<f64> {
    log.samples.iter().map(|&(_, ms)| ms).collect()
}

/// How long server set-up is repeated for its median.
const SETUP_BUDGET: Duration = Duration::from_millis(1000);

/// The untraced run: set-up repeated on throwaway servers, then the
/// closed loop for `seconds` on one more.
pub fn run(env: &Env, seconds: f64) -> Result<Report, String> {
    let mix = Mix::medical()?;
    let mut setup = Vec::new();
    let t = Instant::now();
    while setup.len() < 10 || (setup.len() < 50 && t.elapsed() < SETUP_BUDGET) {
        let (server, conn, s) = start(&mix, env, 1, None)?;
        drop(conn);
        server.finish()?;
        setup.push(s);
    }
    let s = session(&mix, env, Duration::from_secs_f64(seconds), None)?;
    setup.push(s.setup_s);

    let mut report = Report::default();
    report.correct = account(&mut report, &s.log);
    let lat = latencies(&s.log);
    let n = lat.len() as f64;
    println!(
        "serve_mix: workers={} connections={} requests={n} serve_p50_ms={:.3} serve_p90_ms={:.3} \
         serve_rps={:.2}",
        env.threads,
        env.threads,
        quantile(&lat, 0.5),
        quantile(&lat, 0.9),
        n / s.elapsed_s
    );
    report.add("setup_s", median(&setup), "s");
    report.add("latency_p50_ms", quantile(&lat, 0.5), "ms");
    report.add("latency_p90_ms", quantile(&lat, 0.9), "ms");
    report.add("cpu_ms_per_op", s.cpu_s * 1e3 / n, "ms");
    report.add("throughput_per_s", n / s.elapsed_s, "1/s");
    report.add("peak_rss_mb", s.peak_rss_mb, "MiB");
    Ok(report)
}

/// The traced run: in-process decode / execute / encode times per
/// request, a closed loop against a server recording its own trace (the
/// per-op client latencies and the cache counters), and an untraced
/// closed loop for the tracing overhead.
pub fn run_traced(env: &Env, seconds: f64, trace_out: &Path) -> Result<Report, String> {
    let mix = Mix::medical()?;
    let cd = Codesign::parse("<request>", &mix.text).map_err(|e| e.to_string())?;
    let n_tpl = mix.templates.len();
    let per_tpl = Duration::from_secs_f64(seconds * 0.3 / n_tpl as f64);
    let mut decode_us = Vec::new();
    let mut exec_ms = Vec::new();
    let mut encode_us = Vec::new();
    for (t, tpl) in mix.templates.iter().enumerate() {
        let line = mix.line(t, 0, 0);
        let expected = Response::from_json(&tpl.expected).map_err(|e| e.to_string())?;
        let d = repeat_ms(per_tpl / 8, 3, 2000, || {
            let _ = std::hint::black_box(Request::from_json(&line));
        });
        let e = repeat_ms(per_tpl * 6 / 8, 3, 2000, || {
            let _ = std::hint::black_box(execute(&cd, &tpl.req.op));
        });
        let c = repeat_ms(per_tpl / 8, 3, 2000, || {
            std::hint::black_box(expected.to_json_line());
        });
        decode_us.push(median(&d) * 1e3);
        exec_ms.push(median(&e));
        encode_us.push(median(&c) * 1e3);
    }

    let traced = session(
        &mix,
        env,
        Duration::from_secs_f64(seconds * 0.45),
        Some(trace_out),
    )?;
    let plain = session(&mix, env, Duration::from_secs_f64(seconds * 0.2), None)?;
    let mut report = Report::default();
    let traced_ok = account(&mut report, &traced.log);
    report.correct = account(&mut report, &plain.log) && traced_ok;

    let text = std::fs::read_to_string(trace_out)
        .map_err(|e| format!("reading {}: {e}", trace_out.display()))?;
    let trace = modref_obs::jsonl::parse(&text).map_err(|e| format!("server trace: {e}"))?;
    let ctr = |name: &str| trace.counter(name).unwrap_or(0) as f64;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;

    report.add("serve.decode_us", mean(&decode_us), "us");
    report.add("serve.encode_us", mean(&encode_us), "us");
    for (op, name) in OPS.iter().enumerate() {
        let exec: Vec<f64> = (0..n_tpl)
            .filter(|&t| mix.templates[t].op == op)
            .map(|t| exec_ms[t])
            .collect();
        let lat: Vec<f64> = traced
            .log
            .samples
            .iter()
            .filter(|&&(t, _)| mix.templates[t].op == op)
            .map(|&(_, ms)| ms)
            .collect();
        report.add(format!("serve.execute.{name}_ms"), median(&exec), "ms");
        report.add(format!("serve.op.{name}_p50_ms"), median(&lat), "ms");
    }
    let wait: Vec<f64> = traced
        .log
        .samples
        .iter()
        .map(|&(t, ms)| ms - exec_ms[t] - (decode_us[t] + encode_us[t]) / 1e3)
        .collect();
    report.add("serve.wait_ms", median(&wait), "ms");
    let (hit, miss) = (ctr("serve.cache.hit"), ctr("serve.cache.miss"));
    report.add("serve.cache_hit_ratio", hit / (hit + miss), "ratio");
    let bytes: Vec<f64> = mix
        .templates
        .iter()
        .map(|t| (t.expected.len() + 1) as f64)
        .collect();
    report.add("serve.response_bytes", mean(&bytes), "bytes");
    report.add(
        "trace.overhead_ratio",
        median(&latencies(&traced.log)) / median(&latencies(&plain.log)) - 1.0,
        "ratio",
    );
    Ok(report)
}
