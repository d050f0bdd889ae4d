//! Integration: the §V-B encryption service across both serving policies,
//! with real IDEA encryption over loopback TCP.

use std::sync::Arc;

use pyjama::http::{http_post, HttpServer, LoadGenerator, Request, Response, ServingPolicy, Status};
use pyjama::kernels::crypt::{decrypt_seq, encrypt_seq, IdeaKey};
use pyjama::runtime::Runtime;

fn encryption_handler(req: &Request) -> Response {
    let key = IdeaKey::benchmark_key();
    if req.body.is_empty() || !req.body.len().is_multiple_of(8) {
        return Response::error(Status::BadRequest, "body must be a multiple of 8 bytes");
    }
    let mut data = req.body.clone();
    encrypt_seq(&key, &mut data);
    Response::ok(data)
}

fn start_pyjama_server() -> (HttpServer, Arc<Runtime>) {
    let rt = Arc::new(Runtime::new());
    rt.virtual_target_create_worker("worker", 3);
    let server = HttpServer::start(
        ServingPolicy::Reactor {
            runtime: Arc::clone(&rt),
            target: "worker".into(),
        },
        encryption_handler,
    )
    .unwrap();
    (server, rt)
}

#[test]
fn ciphertext_decrypts_back_to_the_request_body() {
    let (mut server, _rt) = start_pyjama_server();
    let plaintext = b"exactly sixteen!".to_vec();
    let resp = http_post(server.addr(), "/encrypt", plaintext.clone()).unwrap();
    assert_eq!(resp.status, Status::Ok);
    assert_ne!(resp.body, plaintext, "ciphertext must differ");
    let key = IdeaKey::benchmark_key();
    let mut round = resp.body.clone();
    decrypt_seq(&key, &mut round);
    assert_eq!(round, plaintext);
    server.shutdown();
}

#[test]
fn both_policies_compute_identical_ciphertext() {
    let mut jetty =
        HttpServer::start(ServingPolicy::JettyPool { threads: 3 }, encryption_handler).unwrap();
    let (mut pyjama_srv, _rt) = start_pyjama_server();

    let body = vec![0x42u8; 64];
    let a = http_post(jetty.addr(), "/encrypt", body.clone()).unwrap();
    let b = http_post(pyjama_srv.addr(), "/encrypt", body).unwrap();
    assert_eq!(a.body, b.body, "serving policy must not affect results");

    jetty.shutdown();
    pyjama_srv.shutdown();
}

#[test]
fn bad_request_rejected_with_400() {
    let (mut server, _rt) = start_pyjama_server();
    let resp = http_post(server.addr(), "/encrypt", vec![1, 2, 3]).unwrap();
    assert_eq!(resp.status, Status::BadRequest);
    server.shutdown();
}

#[test]
fn virtual_user_load_completes_on_both_policies() {
    let body = vec![7u8; 128];
    let gen = LoadGenerator::new(10, 4, "/encrypt", body);

    let mut jetty =
        HttpServer::start(ServingPolicy::JettyPool { threads: 4 }, encryption_handler).unwrap();
    let rj = gen.run(jetty.addr());
    assert_eq!(rj.completed, 40);
    assert_eq!(rj.failed, 0);
    jetty.shutdown();

    let (mut pyjama_srv, _rt) = start_pyjama_server();
    let rp = gen.run(pyjama_srv.addr());
    assert_eq!(rp.completed, 40);
    assert_eq!(rp.failed, 0);
    pyjama_srv.shutdown();
}

#[test]
fn server_counts_match_load_report() {
    let (mut server, _rt) = start_pyjama_server();
    let gen = LoadGenerator::new(4, 5, "/encrypt", vec![0u8; 16]);
    let report = gen.run(server.addr());
    assert_eq!(report.completed, 20);
    // `served` is incremented after the response write succeeds, so the
    // client can observe its response a moment before the counter: spin.
    let t0 = std::time::Instant::now();
    while server.served() < 20 && t0.elapsed() < std::time::Duration::from_secs(5) {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    assert_eq!(server.served(), 20);
    server.shutdown();
}
