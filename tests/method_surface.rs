//! The RPC method surface, pinned on the parent's code ahead of the
//! method-table refactor (ISSUE 26): what every client of the served
//! host can observe of its methods, as CRC-32s.
//!
//! On the host `gae-ctl serve` assembles, plus `sessionstore`:
//! - the `system.listMethods` reply and the `GET /` index;
//! - every `system.methodHelp` reply;
//! - for every listed method, the reply to (a) no params and (b) one
//!   wrong-typed param, each sent anonymously and logged in;
//! - per service, the reply to a method it does not have, anonymously
//!   and logged in, plus an unknown service and a malformed name.
//!
//! Replies are the XML-RPC response bodies `ServiceHost::handle`
//! writes: a success body or the `(faultCode, faultString)` fault.
//! `auth.logout` runs last, because it ends the session.
//! `stats.render` has its numbers masked: its `hist:` rows are
//! wall-clock latencies. On a mismatch the test prints the whole
//! table.

mod served;

use gae::durable::crc32::crc32;
use gae::rpc::{CallContext, ServiceHost};
use gae::wire::{write_response, MethodCall, Value};

/// `(row, crc32)` for the pinned surface, in call order.
const SURFACE_GOLDEN: [(&str, &str); 144] = [
    // `system.listMethods` (both rows) and the `GET /` index moved when
    // `monalisa.job_history` and `trace.timeline` left the surface, and
    // `stats.methods` / `stats.render` with them: they list the method
    // histograms of the calls made so far, two of which are gone.
    ("system.listMethods", "12d2857a"),
    ("GET /", "49f0441c"),
    ("help auth.login", "54bf668f"),
    ("auth.login", "d6150cdb"),
    ("help auth.logout", "371667e7"),
    ("help auth.whoami", "c5510901"),
    ("auth.whoami", "352e776f"),
    ("help estimator.estimate_runtime", "7a386703"),
    ("estimator.estimate_runtime", "e4843583"),
    ("help estimator.queue_time", "7bf6f321"),
    ("estimator.queue_time", "819def75"),
    ("help estimator.transfer_time", "a798b9dd"),
    ("estimator.transfer_time", "4ac5fe7e"),
    ("help estimator.measured_bandwidth", "4059e05b"),
    ("estimator.measured_bandwidth", "d26cea82"),
    ("help history.query", "1a962b62"),
    ("history.query", "56d3a301"),
    ("help history.export", "eb400c79"),
    ("history.export", "4126c711"),
    ("help history.stats", "e0021013"),
    ("history.stats", "89038ef0"),
    ("help jobmon.job_status", "d376aaaf"),
    ("jobmon.job_status", "ba34734e"),
    ("help jobmon.job_info", "2e17da1b"),
    ("jobmon.job_info", "ba34734e"),
    ("help jobmon.remaining_time", "98deee27"),
    ("jobmon.remaining_time", "ba34734e"),
    ("help jobmon.job_tasks", "1f5dd2ef"),
    ("jobmon.job_tasks", "ba34734e"),
    ("help jobmon.job_aggregate_status", "a326198b"),
    ("jobmon.job_aggregate_status", "ba34734e"),
    ("help jobmon.list_active", "bcec876f"),
    ("jobmon.list_active", "285be3d1"),
    ("help monalisa.site_load", "260d8bc4"),
    ("monalisa.site_load", "8e6f2afb"),
    ("help monalisa.queue_length", "71107505"),
    ("monalisa.queue_length", "18948cf2"),
    ("help monalisa.publish", "5c72aded"),
    ("monalisa.publish", "ad348ced"),
    ("help monalisa.publish_batch", "2b8489eb"),
    ("monalisa.publish_batch", "780a3cc4"),
    ("help monalisa.latest", "d5e3c7ca"),
    ("monalisa.latest", "50fa29bd"),
    ("help monalisa.range", "d9992c65"),
    ("monalisa.range", "82b4001d"),
    ("help replica.register", "f5d28ee6"),
    ("replica.register", "c706c6a0"),
    ("help replica.lookup", "33afde77"),
    ("replica.lookup", "56d353ff"),
    ("help replica.replicate", "7abbf5f7"),
    ("replica.replicate", "e3640f02"),
    ("help replica.delete_replica", "c4f38c92"),
    ("replica.delete_replica", "8ce8c866"),
    ("help scheduler.submit_job", "468cfaab"),
    ("scheduler.submit_job", "f8ffb3fb"),
    ("help scheduler.sites", "7ea0653e"),
    ("scheduler.sites", "80cebf08"),
    ("help sessionstore.open", "ca2d3570"),
    ("sessionstore.open", "17b62731"),
    ("help sessionstore.get", "4a16546d"),
    ("sessionstore.get", "17b62731"),
    ("help sessionstore.list", "18e0dc9c"),
    ("sessionstore.list", "0d2378c3"),
    ("help sessionstore.attach_job", "57f6213a"),
    ("sessionstore.attach_job", "f9343b77"),
    ("help sessionstore.note", "67cd89d3"),
    ("sessionstore.note", "17b62731"),
    ("help sessionstore.bookmark", "d1bd8afe"),
    ("sessionstore.bookmark", "17b62731"),
    ("help sessionstore.delete", "67668df8"),
    ("sessionstore.delete", "17b62731"),
    ("help stats.histogram", "ed9eb107"),
    ("stats.histogram", "0c97d674"),
    ("help stats.methods", "be52e638"),
    ("stats.methods", "c07789f2"),
    ("help stats.render", "a80dbea9"),
    ("stats.render", "9d283b68"),
    ("help steering.kill", "dcc14f7c"),
    ("steering.kill", "0d369ab1"),
    ("help steering.pause", "236a1b63"),
    ("steering.pause", "0d369ab1"),
    ("help steering.resume", "96329a86"),
    ("steering.resume", "0d369ab1"),
    ("help steering.set_priority", "ed0df818"),
    ("steering.set_priority", "0d369ab1"),
    ("help steering.move", "ea470105"),
    ("steering.move", "0d369ab1"),
    ("help steering.job_progress", "22605add"),
    ("steering.job_progress", "0d369ab1"),
    ("help steering.execution_state", "527e1e7e"),
    ("steering.execution_state", "0d369ab1"),
    ("help steering.kill_job", "ad18cab2"),
    ("steering.kill_job", "287dc41f"),
    ("help steering.pause_job", "bda37d91"),
    ("steering.pause_job", "287dc41f"),
    ("help steering.resume_job", "a12b11b7"),
    ("steering.resume_job", "287dc41f"),
    ("help steering.set_job_priority", "a4768fc0"),
    ("steering.set_job_priority", "287dc41f"),
    ("help steering.my_jobs", "9520ac3d"),
    ("steering.my_jobs", "0ae4fa84"),
    ("help system.ping", "16c5ea08"),
    ("system.ping", "d5b51c6e"),
    ("help system.echo", "6a8c404c"),
    ("system.echo", "5713113f"),
    ("help system.listMethods", "5877764b"),
    ("system.listMethods", "046d93ce"),
    ("help system.methodHelp", "cbed88e3"),
    ("system.methodHelp", "e560ff72"),
    ("help system.multicall", "bc38d50c"),
    ("system.multicall", "0c7ba168"),
    // `trace.get` / `trace.render` take a task id now: new help
    // strings and a new missing-parameter fault.
    ("help trace.get", "db1faa5b"),
    ("trace.get", "7ef15d91"),
    ("help trace.render", "737b1cfe"),
    ("trace.render", "7ef15d91"),
    ("anon auth.no_such_method", "754abb78"),
    ("user auth.no_such_method", "754abb78"),
    ("anon estimator.no_such_method", "d27544f6"),
    ("user estimator.no_such_method", "d27544f6"),
    ("anon history.no_such_method", "53e7a67a"),
    ("user history.no_such_method", "53e7a67a"),
    ("anon jobmon.no_such_method", "b9a5f44e"),
    ("user jobmon.no_such_method", "b9a5f44e"),
    ("anon monalisa.no_such_method", "094ad19d"),
    ("user monalisa.no_such_method", "094ad19d"),
    ("anon replica.no_such_method", "b7d6bbe0"),
    ("user replica.no_such_method", "b7d6bbe0"),
    ("anon scheduler.no_such_method", "d08101ac"),
    ("user scheduler.no_such_method", "d08101ac"),
    // The one group that moved with the method tables (ISSUE 26): this
    // row and `anon steering.no_such_method`. An anonymous call to a
    // method `sessionstore` or `steering` does not have now answers
    // -32601 "method not found", as a logged-in one does, instead of
    // 401 "this method requires a session": the host resolves the name
    // before the service's `require_user` runs.
    ("anon sessionstore.no_such_method", "185a5a2a"),
    ("user sessionstore.no_such_method", "185a5a2a"),
    ("anon stats.no_such_method", "ded6f316"),
    ("user stats.no_such_method", "ded6f316"),
    ("anon steering.no_such_method", "9cd60a30"),
    ("user steering.no_such_method", "9cd60a30"),
    ("anon system.no_such_method", "c3c2511a"),
    ("user system.no_such_method", "c3c2511a"),
    ("anon trace.no_such_method", "bd72d89c"),
    ("user trace.no_such_method", "bd72d89c"),
    ("anon nosuch.method", "d0db536e"),
    ("user nosuch.method", "d0db536e"),
    ("anon nodots", "95413dc2"),
    ("user nodots", "95413dc2"),
    ("auth.logout", "de650305"),
];

fn reply(host: &ServiceHost, ctx: &CallContext, method: &str, params: Vec<Value>) -> String {
    write_response(&host.handle(ctx, &MethodCall::new(method, params)))
}

/// The text with every run of digits as one `#` and every run of
/// spaces as one space: a latency's digits and the column padding its
/// width decides both vary run to run.
fn mask_numbers(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        let c = if c.is_ascii_digit() { '#' } else { c };
        if !(matches!(c, '#' | ' ') && out.ends_with(c)) {
            out.push(c);
        }
    }
    out
}

fn surface() -> Vec<(String, String)> {
    let (_stack, host) = served::served_host();
    let anon = CallContext::anonymous("surface");
    let user = served::logged_in(&host);
    let mut rows: Vec<(String, String)> = Vec::new();
    let mut pin =
        |row: String, text: &str| rows.push((row, format!("{:08x}", crc32(text.as_bytes()))));

    let listed = reply(&host, &anon, "system.listMethods", vec![]);
    pin("system.listMethods".into(), &listed);
    let (content_type, index) = host.handle_get("/").expect("built-in index");
    pin(
        "GET /".into(),
        &format!("{content_type}\n{}", String::from_utf8_lossy(&index)),
    );

    let names: Vec<String> = host
        .dispatch(&anon, "system.listMethods", &[])
        .expect("listMethods")
        .as_array()
        .expect("an array")
        .iter()
        .map(|v| v.as_str().expect("a name").to_string())
        .collect();
    let calls = |name: &str| {
        let mut text = String::new();
        for ctx in [&anon, &user] {
            for params in [vec![], vec![Value::Bool(true)]] {
                text.push_str(&reply(&host, ctx, name, params));
            }
        }
        if name == "stats.render" {
            text = mask_numbers(&text);
        }
        text
    };
    for name in &names {
        pin(
            format!("help {name}"),
            &reply(
                &host,
                &anon,
                "system.methodHelp",
                vec![Value::from(name.as_str())],
            ),
        );
        if name != "auth.logout" {
            pin(name.clone(), &calls(name));
        }
    }

    let mut services: Vec<&str> = names.iter().filter_map(|n| n.split('.').next()).collect();
    services.dedup();
    let unknown = services
        .iter()
        .map(|s| format!("{s}.no_such_method"))
        .chain(["nosuch.method".to_string(), "nodots".to_string()]);
    for name in unknown {
        for (who, ctx) in [("anon", &anon), ("user", &user)] {
            pin(format!("{who} {name}"), &reply(&host, ctx, &name, vec![]));
        }
    }

    pin("auth.logout".into(), &calls("auth.logout"));
    rows
}

#[test]
fn method_surface_matches_golden() {
    let rows = surface();
    let table = rows
        .iter()
        .map(|(row, crc)| format!("    (\"{row}\", \"{crc}\"),"))
        .collect::<Vec<_>>()
        .join("\n");
    let golden: Vec<(String, String)> = SURFACE_GOLDEN
        .iter()
        .map(|(a, b)| (a.to_string(), b.to_string()))
        .collect();
    assert!(rows == golden, "method surface moved:\n{table}");
}

#[test]
fn method_surface_is_deterministic() {
    assert_eq!(surface(), surface());
}
