//===--- perfbench/src/http_client.cpp - a loopback HTTP/1.1 client -------===//
//
// Part of the Diderot-C++ reproduction (PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <strings.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>

namespace perfbench {

std::string HttpReply::header(const std::string &Name) const {
  for (const auto &[K, V] : Headers)
    if (strcasecmp(K.c_str(), Name.c_str()) == 0)
      return V;
  return "";
}

namespace {

bool sendAll(int Fd, const std::string &Data) {
  size_t Off = 0;
  while (Off < Data.size()) {
    ssize_t N = ::send(Fd, Data.data() + Off, Data.size() - Off, MSG_NOSIGNAL);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Off += static_cast<size_t>(N);
  }
  return true;
}

} // namespace

HttpReply httpRequest(int Port, const std::string &Method,
                      const std::string &Path,
                      const std::vector<std::pair<std::string, std::string>>
                          &Headers,
                      const std::string &Body) {
  HttpReply R;
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return R;
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  sockaddr_in A{};
  A.sin_family = AF_INET;
  A.sin_port = htons(static_cast<uint16_t>(Port));
  A.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&A), sizeof(A)) != 0) {
    ::close(Fd);
    return R;
  }
  std::string Req = Method + " " + Path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  for (const auto &[K, V] : Headers)
    Req += K + ": " + V + "\r\n";
  Req += "Content-Length: " + std::to_string(Body.size()) +
         "\r\nConnection: close\r\n\r\n" + Body;
  std::string Buf;
  if (sendAll(Fd, Req)) {
    char Chunk[65536];
    for (;;) {
      ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        break;
      Buf.append(Chunk, static_cast<size_t>(N));
    }
  }
  ::close(Fd);

  size_t HeadEnd = Buf.find("\r\n\r\n");
  if (HeadEnd == std::string::npos || Buf.compare(0, 5, "HTTP/") != 0)
    return R;
  size_t Sp = Buf.find(' ');
  int Status = std::atoi(Buf.c_str() + Sp + 1);
  size_t Pos = Buf.find("\r\n") + 2;
  while (Pos < HeadEnd) {
    size_t Eol = Buf.find("\r\n", Pos);
    size_t Colon = Buf.find(':', Pos);
    if (Colon != std::string::npos && Colon < Eol) {
      size_t V = Colon + 1;
      while (V < Eol && Buf[V] == ' ')
        ++V;
      R.Headers.emplace_back(Buf.substr(Pos, Colon - Pos),
                             Buf.substr(V, Eol - V));
    }
    Pos = Eol + 2;
  }
  R.Body = Buf.substr(HeadEnd + 4);
  std::string Len = R.header("Content-Length");
  if (!Len.empty() && R.Body.size() != std::strtoull(Len.c_str(), nullptr, 10))
    return R; // truncated: Status stays 0
  R.Status = Status;
  return R;
}

} // namespace perfbench
