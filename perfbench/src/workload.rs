//! Workload definitions and seeded input generation.
//!
//! Everything a run sends is derived from `(workload, seed, seconds)`:
//! the site, the rules file, the user pool with each user's rule state
//! and report encoding, the pool of report bodies, and the request
//! streams of the three phases. The program under test receives only
//! these generated inputs.

use oak_core::report::{ObjectTiming, PerfReport};
use oak_net::StatelessRng;

/// The one script tag every page carries and the one rule rewrites.
pub const DEFAULT_TAG: &str = r#"<script src="http://cdn-a.example/lib.js">"#;
/// The rule's alternative for [`DEFAULT_TAG`].
pub const ALT_TAG: &str = r#"<script src="http://cdn-b.example/lib.js">"#;
/// The `X-Oak-Alternate` value a rewritten page must carry.
pub const ALT_HEADER: &str = "cdn-a.example=cdn-b.example";
/// Pages on the generated site.
pub const PAGES: usize = 32;
/// Per-page third-party hosts besides the hot `cdn-a` host.
const HOSTS: usize = 8;
/// Distinct timing variants per (rule state, page, encoding) body.
const BODY_VARIANTS: usize = 4;
/// Share of `--seconds` spent in the closed-loop goodput phase; the
/// open-loop latency phase gets the rest.
const GOODPUT_SHARE: f64 = 0.4;
/// Zipf exponent for page popularity.
const ZIPF_S: f64 = 1.1;

/// One benchmark workload: a traffic mix and the server it runs against.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    /// Distinct users; each is seeded with one report during setup.
    pub users: usize,
    /// Share of page GETs in the goodput and latency streams (the rest
    /// are report POSTs).
    pub page_share: f64,
    /// Run `oak-serve` with `--store` (default fsync and snapshot cadence).
    pub store: bool,
    /// Run a three-node `--cluster` on loopback.
    pub cluster: bool,
    /// Closed-loop goodput on the seed commit, req/s. Sizes the goodput
    /// phase so it lasts about `GOODPUT_SHARE × --seconds`.
    pub goodput_nominal: f64,
    /// Open-loop arrival rate of the latency phase, req/s: a fifth to a
    /// quarter of `goodput_nominal` (README.md says why not half).
    pub open_rate: f64,
}

/// The workloads, and why each exists, are described in README.md.
/// `replicated_ingest` runs by hand only: its page tail is too heavy
/// for a bound (README.md), so BENCHMARK.json leaves it out.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "browse",
        users: 20_000,
        page_share: 0.9,
        store: false,
        cluster: false,
        goodput_nominal: 21_000.0,
        open_rate: 4_000.0,
    },
    Spec {
        name: "ingest",
        users: 20_000,
        page_share: 0.2,
        store: false,
        cluster: false,
        goodput_nominal: 17_500.0,
        open_rate: 4_500.0,
    },
    Spec {
        name: "durable_ingest",
        users: 20_000,
        page_share: 0.2,
        store: true,
        cluster: false,
        goodput_nominal: 8_000.0,
        open_rate: 2_000.0,
    },
    Spec {
        name: "replicated_ingest",
        users: 256,
        page_share: 0.2,
        store: true,
        cluster: true,
        goodput_nominal: 120.0,
        open_rate: 60.0,
    },
];

pub fn spec(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Wire encoding a user reports in (fixed per user).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Encoding {
    Json,
    Binary,
}

impl Encoding {
    pub fn content_type(self) -> &'static str {
        match self {
            Encoding::Json => "application/json",
            Encoding::Binary => oak_core::wire::OAK_REPORT_CONTENT_TYPE,
        }
    }
}

#[derive(Clone, Debug)]
pub struct User {
    pub name: String,
    /// Whether this user's reports name `cdn-a` as a violator, so the
    /// rule activates at seeding and every later page is rewritten.
    pub rule: bool,
    pub encoding: Encoding,
}

/// One request of a phase's stream.
#[derive(Clone, Copy, Debug)]
pub enum Req {
    Page { user: u32, page: u16 },
    Report { user: u32, body: u32 },
}

impl Req {
    pub fn user(self) -> usize {
        match self {
            Req::Page { user, .. } | Req::Report { user, .. } => user as usize,
        }
    }

    pub fn is_page(self) -> bool {
        matches!(self, Req::Page { .. })
    }
}

/// Every input of one run.
pub struct Plan {
    pub spec: Spec,
    pub seed: u64,
    /// Source HTML per page, served by `oak-serve` from `--root`.
    pub pages: Vec<String>,
    /// Expected HTML per page for a user whose rule is active.
    pub rewritten: Vec<String>,
    pub rules_text: String,
    pub users: Vec<User>,
    /// Report bodies; a user's reports use bodies of its own rule state
    /// and encoding.
    pub bodies: Vec<Vec<u8>>,
    /// Setup: one report per user, closed loop.
    pub seed_phase: Vec<Req>,
    /// Closed-loop goodput phase.
    pub goodput_phase: Vec<Req>,
    /// Open-loop latency phase, sent at `spec.open_rate`.
    pub latency_phase: Vec<Req>,
}

fn body_index(rule: bool, encoding: Encoding, page: usize, variant: usize) -> usize {
    (((rule as usize) * 2 + (encoding == Encoding::Binary) as usize) * PAGES + page) * BODY_VARIANTS
        + variant
}

/// Inverse-CDF zipf over the site's pages.
fn zipf_cdf() -> Vec<f64> {
    let weights: Vec<f64> = (1..=PAGES).map(|r| 1.0 / (r as f64).powf(ZIPF_S)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

fn site_page(seed: u64, page: usize) -> String {
    let mut rng = StatelessRng::keyed(seed, &[1, page as u64]);
    let mut html = String::with_capacity(8 * 1024);
    html.push_str("<!DOCTYPE html><html><head><title>page ");
    html.push_str(&page.to_string());
    html.push_str("</title>");
    html.push_str(DEFAULT_TAG);
    html.push_str("</script>");
    for host in 0..HOSTS {
        html.push_str(&format!(
            r#"<script src="http://cdn-{host}.example/p{page}.js"></script>"#
        ));
    }
    html.push_str("</head><body>");
    // Page sizes depend on the page's rank only, never on the seed, so
    // every seed asks the server for the same amount of work; the seed
    // varies the content.
    let paragraphs = 64 + (page * 7) % 64;
    for n in 0..paragraphs {
        html.push_str(&format!(
            "<p class=\"c{}\">oak paragraph {n:03} lorem {:06} dolor sit amet</p>",
            rng.below(8),
            rng.below(1_000_000)
        ));
    }
    html.push_str("</body></html>");
    html
}

/// A report for `page`: nine small objects from nine servers. Clean
/// reports sit in two tight clusters around 90 and 110 ms, so the
/// paper's `median + 2·MAD` test flags nothing; a rule user's reports
/// add a 900 ms `cdn-a` fetch, which is flagged and matches the rule.
fn report_body(seed: u64, rule: bool, encoding: Encoding, page: usize, variant: usize) -> Vec<u8> {
    let mut rng = StatelessRng::keyed(seed, &[2, rule as u64, page as u64, variant as u64]);
    let mut report = PerfReport::new("oak-bench", format!("/p/{page}.html"));
    let hot_ms = if rule {
        900.0 + rng.uniform(-20.0, 20.0)
    } else {
        100.0 + rng.uniform(-2.0, 2.0)
    };
    report.push(ObjectTiming::new(
        "http://cdn-a.example/lib.js",
        "10.0.100.1",
        30_000,
        hot_ms,
    ));
    for host in 0..HOSTS {
        let centre = if host % 2 == 0 { 90.0 } else { 110.0 };
        report.push(ObjectTiming::new(
            format!("http://cdn-{host}.example/p{page}.js"),
            format!("10.0.{host}.1"),
            30_000,
            centre + rng.uniform(-2.0, 2.0),
        ));
    }
    match encoding {
        Encoding::Json => report.to_json().into_bytes(),
        Encoding::Binary => report.to_binary(),
    }
}

impl Plan {
    pub fn build(spec: Spec, seed: u64, seconds: f64) -> Plan {
        let pages: Vec<String> = (0..PAGES).map(|p| site_page(seed, p)).collect();
        let rewritten = pages
            .iter()
            .map(|p| p.replace(DEFAULT_TAG, ALT_TAG))
            .collect();
        let rules_text = format!(
            "# Generated by oak-perfbench (seed {seed}).\n({}, {:?}, {:?}, 0, *)\n",
            2, DEFAULT_TAG, ALT_TAG
        );

        // Exactly half the users carry the violating host: a seeded
        // Fisher-Yates shuffle picks which half.
        let mut order: Vec<usize> = (0..spec.users).collect();
        let mut rng = StatelessRng::keyed(seed, &[3]);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut rule = vec![false; spec.users];
        for &u in &order[..spec.users / 2] {
            rule[u] = true;
        }
        let users: Vec<User> = (0..spec.users)
            .map(|i| User {
                name: format!("s{seed:x}u{i}"),
                rule: rule[i],
                encoding: if StatelessRng::keyed(seed, &[4, i as u64]).chance(0.5) {
                    Encoding::Binary
                } else {
                    Encoding::Json
                },
            })
            .collect();

        let mut bodies = vec![Vec::new(); 2 * 2 * PAGES * BODY_VARIANTS];
        for rule in [false, true] {
            for encoding in [Encoding::Json, Encoding::Binary] {
                for page in 0..PAGES {
                    for variant in 0..BODY_VARIANTS {
                        bodies[body_index(rule, encoding, page, variant)] =
                            report_body(seed, rule, encoding, page, variant);
                    }
                }
            }
        }

        let cdf = zipf_cdf();
        let report_for = |user: usize, rng: &mut StatelessRng| {
            let page = cdf.partition_point(|&c| c < rng.next_f64()).min(PAGES - 1);
            let variant = rng.below(BODY_VARIANTS as u64) as usize;
            let u = &users[user];
            Req::Report {
                user: user as u32,
                body: body_index(u.rule, u.encoding, page, variant) as u32,
            }
        };

        // Setup seeds every user once, in a seeded order.
        let mut seed_rng = StatelessRng::keyed(seed, &[5]);
        let seed_phase = order
            .iter()
            .rev()
            .map(|&u| report_for(u, &mut seed_rng))
            .collect();

        let stream = |tag: u64, count: usize| -> Vec<Req> {
            let mut rng = StatelessRng::keyed(seed, &[6, tag]);
            (0..count)
                .map(|_| {
                    let user = rng.below(spec.users as u64) as usize;
                    if rng.chance(spec.page_share) {
                        let page = cdf.partition_point(|&c| c < rng.next_f64()).min(PAGES - 1);
                        Req::Page {
                            user: user as u32,
                            page: page as u16,
                        }
                    } else {
                        report_for(user, &mut rng)
                    }
                })
                .collect()
        };
        let goodput_count = (spec.goodput_nominal * GOODPUT_SHARE * seconds).round() as usize;
        let latency_count = (spec.open_rate * (1.0 - GOODPUT_SHARE) * seconds).round() as usize;
        let goodput_phase = stream(1, goodput_count.max(1));
        let latency_phase = stream(2, latency_count.max(1));

        Plan {
            spec,
            seed,
            pages,
            rewritten,
            rules_text,
            users,
            bodies,
            seed_phase,
            goodput_phase,
            latency_phase,
        }
    }

    /// Every request, phase by phase (setup is counted once).
    pub fn request_count(&self) -> usize {
        self.seed_phase.len() + self.goodput_phase.len() + self.latency_phase.len()
    }

    /// FNV-1a over every input the server sees: site, rules, and each
    /// phase's requests as sent. Same seed, same hash.
    pub fn stream_hash(&self) -> u64 {
        let mut h = Fnv::new();
        for page in &self.pages {
            h.write(page.as_bytes());
        }
        h.write(self.rules_text.as_bytes());
        let mut buf = Vec::new();
        for phase in [&self.seed_phase, &self.goodput_phase, &self.latency_phase] {
            h.write(&(phase.len() as u64).to_le_bytes());
            for &req in phase.iter() {
                buf.clear();
                self.encode(req, None, &mut buf);
                h.write(&buf);
            }
        }
        h.0
    }

    /// Serializes `req` as an HTTP/1.1 keep-alive request. `trace_id`
    /// adds the `X-Bench-Req` header the traced run correlates spans by.
    pub fn encode(&self, req: Req, trace_id: Option<u64>, out: &mut Vec<u8>) {
        use std::io::Write;
        let user = &self.users[req.user()];
        match req {
            Req::Page { page, .. } => {
                let _ = write!(out, "GET /p/{page}.html HTTP/1.1\r\nHost: bench\r\n");
            }
            Req::Report { body, .. } => {
                let body = &self.bodies[body as usize];
                let _ = write!(
                    out,
                    "POST /oak/report HTTP/1.1\r\nHost: bench\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
                    user.encoding.content_type(),
                    body.len()
                );
            }
        }
        let _ = write!(out, "Cookie: oak_uid={}\r\n", user.name);
        if let Some(id) = trace_id {
            let _ = write!(out, "X-Bench-Req: {id}\r\n");
        }
        out.extend_from_slice(b"\r\n");
        if let Req::Report { body, .. } = req {
            out.extend_from_slice(&self.bodies[body as usize]);
        }
    }

    /// Checks one response against what the user's seeded rule state
    /// demands: 204 for a report; for a page, 200 and either the
    /// rewritten page with `X-Oak-Alternate` (rule users) or the source
    /// page byte for byte with no `X-Oak-Alternate` (everyone else).
    pub fn check(&self, req: Req, status: u16, alternate: Option<&[u8]>, body: &[u8]) -> bool {
        match req {
            Req::Report { .. } => status == 204,
            Req::Page { user, page } => {
                if status != 200 {
                    return false;
                }
                if self.users[user as usize].rule {
                    alternate == Some(ALT_HEADER.as_bytes())
                        && body == self.rewritten[page as usize].as_bytes()
                } else {
                    alternate.is_none() && body == self.pages[page as usize].as_bytes()
                }
            }
        }
    }

    /// Writes the document root and rules file `oak-serve` loads.
    pub fn write_inputs(&self, dir: &std::path::Path) -> std::io::Result<()> {
        let root = dir.join("site/p");
        std::fs::create_dir_all(&root)?;
        for (i, html) in self.pages.iter().enumerate() {
            std::fs::write(root.join(format!("{i}.html")), html)?;
        }
        std::fs::write(dir.join("site.oakrules"), &self.rules_text)
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}
