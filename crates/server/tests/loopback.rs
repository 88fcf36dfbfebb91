//! End-to-end loopback tests: real TCP round trips against a live
//! [`TemplarServer`], over both codecs, compared against the in-process
//! [`RegistryClient`] path — plus the admission ladder observed from the
//! wire.

use relational::{DataType, Database, Schema};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use templar_api::binary::{self, CodecError, WireCodec};
use templar_api::{
    decode_response, encode_request, ApiError, RequestBody, RequestEnvelope, TranslateRequest,
};
use templar_core::{Keyword, KeywordMetadata, QueryLog, TemplarConfig};
use templar_server::{ClientError, ServerConfig, TcpClient, TemplarServer};
use templar_service::{RegistryClient, ServiceConfig, TemplarService, TenantRegistry};

fn academic_db() -> Arc<Database> {
    let schema = Schema::builder("academic")
        .relation(
            "publication",
            &[
                ("pid", DataType::Integer),
                ("title", DataType::Text),
                ("year", DataType::Integer),
                ("jid", DataType::Integer),
            ],
            Some("pid"),
        )
        .relation(
            "journal",
            &[("jid", DataType::Integer), ("name", DataType::Text)],
            Some("jid"),
        )
        .foreign_key("publication", "jid", "journal", "jid")
        .build();
    let mut db = Database::new(schema);
    db.insert(
        "publication",
        vec![1.into(), "Query Processing".into(), 2003.into(), 1.into()],
    )
    .unwrap();
    db.insert("journal", vec![1.into(), "TKDE".into()]).unwrap();
    Arc::new(db)
}

fn registry_with(config: ServiceConfig) -> Arc<TenantRegistry> {
    let registry = Arc::new(TenantRegistry::new());
    let service = TemplarService::spawn(
        academic_db(),
        &QueryLog::new(),
        TemplarConfig::paper_defaults(),
        config,
    )
    .unwrap();
    registry.register("academic", service);
    registry
}

fn papers_request() -> TranslateRequest {
    TranslateRequest::new(
        "academic",
        "return the papers",
        vec![(Keyword::new("papers"), KeywordMetadata::select())],
    )
}

#[test]
fn both_codecs_match_the_in_process_client_byte_for_byte() {
    let registry = registry_with(ServiceConfig::default());
    let server = TemplarServer::start(Arc::clone(&registry), ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let in_process = RegistryClient::new(&registry);
    let expected = in_process.translate(papers_request()).unwrap();

    let mut json = TcpClient::connect_json(addr).unwrap();
    let mut binary = TcpClient::connect_binary(addr).unwrap();
    assert_eq!(binary.codec(), WireCodec::Binary);
    let via_json = json.translate(papers_request()).unwrap();
    let via_binary = binary.translate(papers_request()).unwrap();

    // The three transports must agree on the entire explained response —
    // scores, explanations, everything (f64s survive both codecs exactly).
    assert_eq!(expected, via_json);
    assert_eq!(expected, via_binary);
    assert!(!expected.candidates.is_empty(), "fixture should translate");

    // With nothing in flight, every transport reports exactly the
    // service's own metrics.
    let service_metrics = registry.get("academic").unwrap().metrics();
    assert_eq!(in_process.metrics("academic").unwrap(), service_metrics);
    assert_eq!(json.metrics("academic").unwrap(), service_metrics);
    assert_eq!(binary.metrics("academic").unwrap(), service_metrics);

    // The write path and observability surface round-trip too.
    binary
        .submit_sql("academic", "SELECT p.title FROM publication p")
        .unwrap();
    json.feedback(
        "academic",
        "SELECT p.title FROM publication p WHERE p.year > 2000",
    )
    .unwrap();
    let report = binary.metrics("academic").unwrap();
    assert!(report.translations_served >= 1);
    let slow = json.slow_queries("academic").unwrap();
    assert!(slow.len() <= 32);
    let prom = binary.prometheus(Some("academic")).unwrap();
    assert!(prom.contains("templar_translations_total"));

    let stats = server.stats();
    assert!(stats.json_requests >= 2 && stats.binary_requests >= 3);
    assert_eq!(stats.connections_accepted, 2);
}

#[test]
fn negotiated_json_session_matches_the_binary_one() {
    let registry = registry_with(ServiceConfig::default());
    let server = TemplarServer::start(Arc::clone(&registry), ServerConfig::default()).unwrap();

    // Cross-negotiation: the handshake machinery granting JSON must yield
    // the same responses as a binary session on the same server.
    let mut negotiated =
        TcpClient::connect_negotiated(server.local_addr(), WireCodec::Json).unwrap();
    assert_eq!(negotiated.codec(), WireCodec::Json);
    let mut binary = TcpClient::connect_binary(server.local_addr()).unwrap();

    let a = negotiated.translate(papers_request()).unwrap();
    let b = binary.translate(papers_request()).unwrap();
    assert_eq!(a, b);
}

#[test]
fn pipelined_requests_complete_out_of_order_under_their_ids() {
    let registry = registry_with(ServiceConfig::default());
    let server = TemplarServer::start(Arc::clone(&registry), ServerConfig::default()).unwrap();

    let mut client = TcpClient::connect_binary(server.local_addr()).unwrap();
    let ids: Vec<u64> = (0..6)
        .map(|_| {
            client
                .send(RequestBody::Translate(papers_request()))
                .unwrap()
        })
        .collect();
    // Collect newest-first: every response must still land on its own id.
    for id in ids.iter().rev() {
        match client.recv(*id).unwrap() {
            templar_api::ResponseBody::Translated(response) => {
                assert!(!response.candidates.is_empty())
            }
            other => panic!("wrong body for id {id}: {other:?}"),
        }
    }
}

#[test]
fn netcat_style_json_lines_need_no_handshake() {
    let registry = registry_with(ServiceConfig::default());
    let server = TemplarServer::start(Arc::clone(&registry), ServerConfig::default()).unwrap();

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // A malformed line gets a typed error envelope, not a hangup.
    stream.write_all(b"this is not json\n").unwrap();
    let line = read_line(&mut stream);
    let envelope = decode_response(&line).unwrap();
    assert!(matches!(
        envelope.into_result(),
        Err(ApiError::MalformedEnvelope { .. })
    ));

    // The same connection still serves a well-formed request afterwards.
    let request = encode_request(&RequestEnvelope::new(
        7,
        RequestBody::Metrics {
            tenant: "academic".to_string(),
        },
    ));
    stream.write_all(request.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let envelope = decode_response(&read_line(&mut stream)).unwrap();
    assert_eq!(envelope.id, 7);
    assert!(envelope.into_result().is_ok());
}

#[test]
fn version_mismatch_hello_gets_a_rejecting_ack_and_a_close() {
    let registry = registry_with(ServiceConfig::default());
    let server = TemplarServer::start(Arc::clone(&registry), ServerConfig::default()).unwrap();

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut hello = binary::encode_hello(WireCodec::Binary);
    hello[4..8].copy_from_slice(&99u32.to_le_bytes());
    stream.write_all(&hello).unwrap();

    let mut ack = [0u8; binary::HANDSHAKE_LEN];
    stream.read_exact(&mut ack).unwrap();
    assert_eq!(binary::decode_ack(&ack), Err(CodecError::Rejected));
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "server closes after rejecting the hello");

    // The client constructor surfaces the same outcome typed.
    let mut bad_hello_client = TcpClient::connect_binary(server.local_addr());
    assert!(bad_hello_client.is_ok(), "well-formed hello still accepted");
    let response = bad_hello_client.as_mut().unwrap().metrics("academic");
    assert!(response.is_ok());
}

#[test]
fn tenant_quota_sheds_typed_backpressure_visible_in_prometheus() {
    let registry = registry_with(ServiceConfig::default().with_max_inflight(1));
    let server = TemplarServer::start(Arc::clone(&registry), ServerConfig::default()).unwrap();
    let mut client = TcpClient::connect_binary(server.local_addr()).unwrap();

    // Fill the tenant's single-slot quota from the side, deterministically.
    let service = registry.get("academic").unwrap();
    let permit = service.try_admit().expect("quota starts empty");

    let err = client.submit_sql("academic", "SELECT p.title FROM publication p");
    match err {
        Err(ClientError::Api(ApiError::Backpressure)) => {}
        other => panic!("expected typed Backpressure over the wire, got {other:?}"),
    }

    // Observability stays readable while the quota is full…
    let prom = client.prometheus(Some("academic")).unwrap();
    assert!(
        prom.contains("templar_admission_tenant_shed_total{tenant=\"academic\"} 1"),
        "shed counter must be exported:\n{prom}"
    );

    // …and the slot frees on permit drop.
    drop(permit);
    client
        .submit_sql("academic", "SELECT p.title FROM publication p")
        .unwrap();
}

#[test]
fn health_is_answered_while_admission_is_shedding() {
    let registry = registry_with(ServiceConfig::default().with_max_inflight(1));
    let server = TemplarServer::start(Arc::clone(&registry), ServerConfig::default()).unwrap();
    let mut client = TcpClient::connect_binary(server.local_addr()).unwrap();

    let service = registry.get("academic").unwrap();
    let permit = service.try_admit().expect("quota starts empty");

    // Admission-controlled work is shed…
    match client.submit_sql("academic", "SELECT p.title FROM publication p") {
        Err(ClientError::Api(ApiError::Backpressure)) => {}
        other => panic!("expected typed Backpressure over the wire, got {other:?}"),
    }

    // …but Health is exempt: an operator diagnosing the overload must be
    // able to see the state that explains it.
    let report = client.health("academic").unwrap();
    assert_eq!(report.state, "healthy");
    assert_eq!(report.health_state, 0);
    assert_eq!(report.degraded_entries_total, 0);
    drop(permit);
}

#[test]
fn global_inflight_cap_sheds_under_concurrent_load() {
    let registry = registry_with(ServiceConfig::default());
    let config = ServerConfig::default()
        .with_workers(4)
        .with_max_global_inflight(1);
    let server = TemplarServer::start(Arc::clone(&registry), config).unwrap();
    let addr = server.local_addr();

    let mut sheds = 0u64;
    let mut successes = 0u64;
    for _round in 0..10 {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut client = TcpClient::connect_binary(addr).unwrap();
                    let mut ok = 0u64;
                    let mut shed = 0u64;
                    let ids: Vec<u64> = (0..16)
                        .map(|_| {
                            client
                                .send(RequestBody::Translate(papers_request()))
                                .unwrap()
                        })
                        .collect();
                    for id in ids {
                        match client.recv(id) {
                            Ok(_) => ok += 1,
                            Err(ClientError::Api(ApiError::Backpressure)) => shed += 1,
                            Err(other) => panic!("unexpected failure: {other:?}"),
                        }
                    }
                    (ok, shed)
                })
            })
            .collect();
        for handle in handles {
            let (ok, shed) = handle.join().unwrap();
            successes += ok;
            sheds += shed;
        }
        if sheds > 0 {
            break;
        }
    }
    assert!(successes > 0, "the plane must keep serving under overload");
    assert!(
        sheds > 0,
        "4 workers against a global cap of 1 must shed some requests"
    );
    assert_eq!(server.stats().global_sheds, sheds);

    // Global sheds are attributed to the tenant they targeted.
    let prom = TcpClient::connect_json(addr)
        .unwrap()
        .prometheus(Some("academic"))
        .unwrap();
    let line = prom
        .lines()
        .find(|l| l.starts_with("templar_admission_global_shed_total"))
        .expect("global shed family exported");
    assert_eq!(
        line,
        &format!("templar_admission_global_shed_total{{tenant=\"academic\"}} {sheds}")
    );
}

#[test]
fn connection_cap_rejects_at_accept_time() {
    let registry = registry_with(ServiceConfig::default());
    let config = ServerConfig::default().with_max_connections(1);
    let server = TemplarServer::start(Arc::clone(&registry), config).unwrap();

    let mut first = TcpClient::connect_json(server.local_addr()).unwrap();
    first.metrics("academic").unwrap();

    let mut second = TcpStream::connect(server.local_addr()).unwrap();
    let mut turned_away = String::new();
    second.read_to_string(&mut turned_away).unwrap();
    let envelope = decode_response(turned_away.trim()).unwrap();
    assert_eq!(envelope.id, 0, "no request was read, so no id to echo");
    assert!(matches!(
        envelope.into_result(),
        Err(ApiError::Backpressure)
    ));

    // The admitted connection is unaffected.
    first.metrics("academic").unwrap();
    let stats = server.stats();
    assert_eq!(stats.connections_rejected, 1);
    assert_eq!(stats.connections_accepted, 1);
}

#[test]
fn oversized_binary_frame_is_answered_then_closed() {
    let registry = registry_with(ServiceConfig::default());
    let server = TemplarServer::start(Arc::clone(&registry), ServerConfig::default()).unwrap();

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .write_all(&binary::encode_hello(WireCodec::Binary))
        .unwrap();
    let mut ack = [0u8; binary::HANDSHAKE_LEN];
    stream.read_exact(&mut ack).unwrap();

    // Announce a frame bigger than the cap; the body never needs to exist.
    let huge = (binary::MAX_FRAME_BYTES as u32) + 1;
    stream.write_all(&huge.to_le_bytes()).unwrap();

    let mut len = [0u8; 4];
    stream.read_exact(&mut len).unwrap();
    let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut payload).unwrap();
    let (id, outcome) = binary::decode_response_frame(&payload).unwrap();
    assert_eq!(id, 0);
    assert!(matches!(outcome, Err(ApiError::MalformedEnvelope { .. })));

    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "connection closes after the typed answer");
}

#[test]
fn silent_connection_is_reaped_by_the_greeting_timeout() {
    let registry = registry_with(ServiceConfig::default());
    let config = ServerConfig::default().with_greeting_timeout_ms(100);
    let server = TemplarServer::start(Arc::clone(&registry), config).unwrap();

    // Connect and send nothing: a slowloris socket must not hold its
    // connection slot forever.
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let mut buf = [0u8; 1];
    let outcome = stream.read(&mut buf);
    assert!(
        matches!(outcome, Ok(0) | Err(_)),
        "server should close the never-greeting connection, got {outcome:?}"
    );
    let stats = server.stats();
    assert_eq!(stats.connections_timed_out, 1);
    assert_eq!(stats.connections_closed, 1);
}

#[test]
fn idle_greeted_connection_is_reaped_while_active_ones_survive() {
    let registry = registry_with(ServiceConfig::default());
    let config = ServerConfig::default()
        .with_greeting_timeout_ms(5_000)
        .with_idle_timeout_ms(250);
    let server = TemplarServer::start(Arc::clone(&registry), config).unwrap();

    let mut idle = TcpClient::connect_binary(server.local_addr()).unwrap();
    idle.metrics("academic").unwrap();

    // A second connection keeps talking through the idle window and must
    // be untouched by the sweep that reaps the quiet one.
    let mut active = TcpClient::connect_binary(server.local_addr()).unwrap();
    for _ in 0..8 {
        std::thread::sleep(std::time::Duration::from_millis(100));
        active.metrics("academic").unwrap();
    }

    assert!(
        idle.metrics("academic").is_err(),
        "idle connection should have been closed"
    );
    active.metrics("academic").unwrap();
    assert_eq!(server.stats().connections_timed_out, 1);
}

#[test]
fn poll_fallback_backend_serves_identically() {
    let registry = registry_with(ServiceConfig::default());
    let config = ServerConfig::default().with_force_poll(true);
    let server = TemplarServer::start(Arc::clone(&registry), config).unwrap();
    assert!(server.is_poll_fallback());

    let mut client = TcpClient::connect_binary(server.local_addr()).unwrap();
    let response = client.translate(papers_request()).unwrap();
    assert!(!response.candidates.is_empty());
}

#[test]
fn shutdown_closes_connections_and_joins_threads() {
    let registry = registry_with(ServiceConfig::default());
    let mut server = TemplarServer::start(Arc::clone(&registry), ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut client = TcpClient::connect_binary(addr).unwrap();
    client.metrics("academic").unwrap();

    server.shutdown();
    server.shutdown(); // idempotent

    // The old connection is gone and nothing new is accepted.
    let dead = client.metrics("academic");
    assert!(dead.is_err(), "socket must be closed after shutdown");
    assert!(
        TcpStream::connect(addr).is_err() || {
            let mut probe = TcpStream::connect(addr).unwrap();
            let mut buf = [0u8; 1];
            probe.write_all(b"\n").ok();
            matches!(probe.read(&mut buf), Ok(0) | Err(_))
        }
    );
}

fn read_line(stream: &mut TcpStream) -> String {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        stream.read_exact(&mut byte).unwrap();
        if byte[0] == b'\n' {
            break;
        }
        line.push(byte[0]);
    }
    String::from_utf8(line).unwrap()
}
